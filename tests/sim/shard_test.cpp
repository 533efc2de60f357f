/// sim::ShardGroup unit tests: the canonical mailbox order, the
/// conservative-lookahead guard, shard-count independence of the
/// delivery sequence, the barrier's merge with waiting messages, and a
/// pinned ping-pong schedule.

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <sstream>
#include <string>
#include <vector>

#include "gridmon/sim/shard.hpp"

using gridmon::sim::ShardGroup;
using gridmon::sim::ShardMessage;
using gridmon::sim::ShardRunner;
using gridmon::sim::SimTime;

namespace {

/// A scripted runner: no local events, records every delivery as
/// "t=<deliver_at> uid=<uid> kind=<kind>" into a shared journal tagged
/// with its own name.
class RecordingShard final : public ShardRunner {
 public:
  RecordingShard(std::string name, std::vector<std::string>& journal)
      : name_(std::move(name)), journal_(journal) {}

  SimTime now() const override { return now_; }
  std::size_t run(SimTime until) override {
    if (until > now_) now_ = until;
    return 0;
  }
  void deliver(const ShardMessage& m) override {
    std::ostringstream line;
    line << name_ << " t=" << m.deliver_at << " uid=" << m.uid
         << " kind=" << m.kind;
    journal_.push_back(line.str());
    EXPECT_EQ(now_, m.deliver_at);
  }

 private:
  std::string name_;
  SimTime now_ = 0;
  std::vector<std::string>& journal_;
};

/// A ping-pong runner: every delivery answers the peer one lookahead
/// later, so the message stream stays dense.
class PingPongShard final : public ShardRunner {
 public:
  PingPongShard(int self, int peer) : self_(self), peer_(peer) {}
  void bind(ShardGroup& group) { group_ = &group; }

  SimTime now() const override { return now_; }
  std::size_t run(SimTime until) override {
    if (until > now_) now_ = until;
    return 0;
  }
  void deliver(const ShardMessage& m) override {
    ++received_;
    checksum_ = checksum_ * 1099511628211ull + m.uid + m.a;
    if (m.a < 64) {
      group_->post(self_, peer_,
                   ShardMessage{m.deliver_at + group_->lookahead(), m.uid, 0,
                                0, m.a + 1, 0});
    }
  }

  std::uint64_t received() const { return received_; }
  std::uint64_t checksum() const { return checksum_; }

 private:
  int self_;
  int peer_;
  ShardGroup* group_ = nullptr;
  SimTime now_ = 0;
  std::uint64_t received_ = 0;
  std::uint64_t checksum_ = 14695981039346656037ull;
};

}  // namespace

TEST(ShardGroup, RejectsEmptyOrNonPositiveLookahead) {
  std::vector<std::string> journal;
  RecordingShard a("a", journal);
  EXPECT_THROW(ShardGroup({}, 1.0), std::invalid_argument);
  EXPECT_THROW(ShardGroup({&a}, 0.0), std::invalid_argument);
  EXPECT_THROW(ShardGroup({&a}, -1.0), std::invalid_argument);
}

TEST(ShardGroup, PostInsideWindowThrows) {
  std::vector<std::string> journal;
  RecordingShard a("a", journal);
  RecordingShard b("b", journal);
  ShardGroup group({&a, &b}, 1.0);
  group.run(1.0);  // window [0, 1): window_end_ is now 1
  EXPECT_THROW(group.post(0, 1, ShardMessage{0.5, 1, 0, 0, 0, 0}),
               std::logic_error);
  // Exactly at the window end is legal — it lands in the next window.
  EXPECT_NO_THROW(group.post(0, 1, ShardMessage{1.0, 1, 0, 0, 0, 0}));
}

TEST(ShardGroup, DeliversInCanonicalOrderRegardlessOfSender) {
  // Two senders interleave posts to one receiver; delivery must follow
  // (deliver_at, uid, seq), not arrival or sender order.
  std::vector<std::string> journal;
  RecordingShard a("a", journal);
  RecordingShard b("b", journal);
  RecordingShard c("c", journal);
  ShardGroup group({&a, &b, &c}, 10.0);
  group.post(1, 0, ShardMessage{12.0, 7, 0, 1, 0, 0});
  group.post(2, 0, ShardMessage{11.0, 9, 0, 2, 0, 0});
  group.post(1, 0, ShardMessage{11.0, 2, 0, 3, 0, 0});
  group.post(2, 0, ShardMessage{12.0, 7, 0, 4, 0, 0});  // same (t, uid)!
  group.run(20.0);
  // The same-(t, uid) pair from different senders is outside the
  // protocol contract, but the tie still resolves deterministically by
  // seq within the sorted batch.
  ASSERT_EQ(journal.size(), 4u);
  EXPECT_EQ(journal[0], "a t=11 uid=2 kind=3");
  EXPECT_EQ(journal[1], "a t=11 uid=9 kind=2");
  EXPECT_EQ(journal[2], "a t=12 uid=7 kind=1");
  EXPECT_EQ(journal[3], "a t=12 uid=7 kind=4");
  EXPECT_EQ(group.messages_delivered(), 4u);
}

TEST(ShardGroup, SingleSenderDescendingUidsDeliverAscending) {
  // One sender, one instant, uids posted high to low (the gateway's
  // reply outbox is not always sorted): the barrier still hands the
  // receiver canonical (deliver_at, uid, seq) order, not posting order.
  std::vector<std::string> journal;
  RecordingShard a("a", journal);
  RecordingShard b("b", journal);
  ShardGroup group({&a, &b}, 1.0);
  for (std::uint64_t uid : {9u, 5u, 3u, 0u}) {
    group.post(0, 1, ShardMessage{1.5, uid, 0, 0, 0, 0});
  }
  group.post(0, 1, ShardMessage{1.5, 5, 0, 1, 0, 0});  // same uid, later seq
  group.post(0, 1, ShardMessage{1.25, 7, 0, 2, 0, 0});
  group.run(2.0);
  ASSERT_EQ(journal.size(), 6u);
  EXPECT_EQ(journal[0], "b t=1.25 uid=7 kind=2");
  EXPECT_EQ(journal[1], "b t=1.5 uid=0 kind=0");
  EXPECT_EQ(journal[2], "b t=1.5 uid=3 kind=0");
  EXPECT_EQ(journal[3], "b t=1.5 uid=5 kind=0");
  EXPECT_EQ(journal[4], "b t=1.5 uid=5 kind=1");
  EXPECT_EQ(journal[5], "b t=1.5 uid=9 kind=0");
}

TEST(ShardGroup, SelfPostTakesTheBarrierTrip) {
  std::vector<std::string> journal;
  RecordingShard a("a", journal);
  ShardGroup group({&a}, 1.0);
  group.post(0, 0, ShardMessage{0.5, 1, 0, 42, 0, 0});
  group.run(2.0);
  ASSERT_EQ(journal.size(), 1u);
  EXPECT_EQ(journal[0], "a t=0.5 uid=1 kind=42");
}

/// The property the frontier's determinism rests on: the per-entity
/// delivery sequence a receiver observes is a pure function of the
/// message multiset, independent of how many shards sent it.
TEST(ShardGroup, DeliverySequenceIsShardCountIndependent) {
  // Messages for 40 entities at pseudo-random times, generated from a
  // fixed recurrence. Partition the senders two ways: all-from-one vs
  // spread-over-three. The receiver's journal must match exactly.
  auto generate = [](int senders) {
    std::vector<std::string> journal;
    RecordingShard sink("sink", journal);
    std::deque<RecordingShard> sources;  // non-movable: no vector
    for (int s = 0; s < 3; ++s) sources.emplace_back("src", journal);
    ShardGroup group({&sink, &sources[0], &sources[1], &sources[2]}, 5.0);
    std::uint64_t state = 12345;
    for (int i = 0; i < 200; ++i) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      std::uint64_t uid = (state >> 33) % 40;
      double at = 5.0 + static_cast<double>(state % 9000) / 100.0;
      int from = senders == 1 ? 1 : 1 + static_cast<int>(uid % 3);
      group.post(from, 0,
                 ShardMessage{at, uid, 0, static_cast<std::uint32_t>(i),
                              0, 0});
    }
    group.run(100.0);
    return journal;
  };
  std::vector<std::string> one = generate(1);
  std::vector<std::string> three = generate(3);
  ASSERT_EQ(one.size(), 200u);
  // Same-uid messages always share a sender in both partitionings (the
  // protocol contract), so even (t, uid) ties resolve identically via
  // seq, and equality must hold line for line.
  EXPECT_EQ(one, three);
}

/// Eight dense ping-pong chains over 400 windows. The pinned
/// (checksum, received) pair fixes the whole delivery schedule, so any
/// change to the barrier's order shows up here.
TEST(ShardGroup, PingPongChainsMatchRecordedChecksum) {
  PingPongShard left(0, 1);
  PingPongShard right(1, 0);
  ShardGroup group({&left, &right}, 0.5);
  left.bind(group);
  right.bind(group);
  for (std::uint64_t uid = 0; uid < 8; ++uid) {
    group.post(0, 1, ShardMessage{1.0 + static_cast<double>(uid), uid, 0,
                                  0, 0, 0});
  }
  group.run(200.0);
  EXPECT_EQ(left.checksum() * 31 + right.checksum(), 14768873489446934412ull);
  EXPECT_EQ(left.received() + right.received(), 520u);
}

TEST(ShardGroup, LaterPostMergesAheadOfWaitingMessage) {
  // A message still waiting in the inbox from an earlier barrier must
  // merge with later posts in canonical order: an earlier deliver_at or
  // a lower uid at the same instant goes first, whenever it was posted.
  std::vector<std::string> journal;
  RecordingShard a("a", journal);
  RecordingShard b("b", journal);
  ShardGroup group({&a, &b}, 1.0);
  group.post(0, 1, ShardMessage{5.0, 1, 0, 1, 0, 0});
  group.run(1.0);  // the barrier moves it into b's inbox; not yet due
  group.post(0, 1, ShardMessage{5.0, 3, 0, 4, 0, 0});
  group.post(0, 1, ShardMessage{5.0, 0, 0, 3, 0, 0});
  group.post(0, 1, ShardMessage{2.0, 2, 0, 2, 0, 0});
  group.run(6.0);
  ASSERT_EQ(journal.size(), 4u);
  EXPECT_EQ(journal[0], "b t=2 uid=2 kind=2");
  EXPECT_EQ(journal[1], "b t=5 uid=0 kind=3");
  EXPECT_EQ(journal[2], "b t=5 uid=1 kind=1");
  EXPECT_EQ(journal[3], "b t=5 uid=3 kind=4");
}

TEST(ShardGroup, WindowAccountingAdvancesClock) {
  std::vector<std::string> journal;
  RecordingShard a("a", journal);
  RecordingShard b("b", journal);
  ShardGroup group({&a, &b}, 2.0);
  group.run(10.0);
  EXPECT_EQ(group.now(), 10.0);
  EXPECT_EQ(a.now(), 10.0);
  EXPECT_EQ(b.now(), 10.0);
  EXPECT_EQ(group.windows_run(), 5u);
  EXPECT_EQ(group.shard_count(), 2);
  EXPECT_EQ(group.lookahead(), 2.0);
}
