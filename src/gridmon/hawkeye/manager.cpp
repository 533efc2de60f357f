#include "gridmon/hawkeye/manager.hpp"

#include "gridmon/classad/parser.hpp"

namespace gridmon::hawkeye {
namespace {

// WAL record op tags for the resident ad database.
constexpr std::uint8_t kOpPut = 1;    // machine, received_at, ad text
constexpr std::uint8_t kOpErase = 2;  // machine

}  // namespace

Manager::Manager(net::Network& net, host::Host& host, net::Interface& nic,
                 ManagerConfig config)
    : net_(net),
      host_(host),
      nic_(nic),
      config_(config),
      thread_(host.simulation(), config.threads),
      port_(host.simulation(), config.backlog) {
  if (config_.store.enabled()) {
    // The private-base conversion must happen here, inside the class.
    store::Durable& self = *this;
    log_ = std::make_unique<store::Log>(host, self, config_.store);
    log_->start();
  }
}

void Manager::crash(bool blackhole) {
  port_.crash(blackhole);
  if (log_) log_->crash();
  ads_at_crash_ = ads_.size();
  awaiting_recovery_ = true;
  recovered_at_ = -1;
  // The resident database dies with the daemon; the store's crash() above
  // already closed the log, so clearing journals nothing.
  ads_.clear();
}

void Manager::restart() {
  if (log_) {
    host_.simulation().spawn(recover_then_restart());
    return;
  }
  port_.restart();
  note_recovery_progress();
}

sim::Task<void> Manager::recover_then_restart() {
  co_await log_->recover();
  port_.restart();
  note_recovery_progress();
}

void Manager::note_recovery_progress() {
  if (awaiting_recovery_ && ads_.size() >= ads_at_crash_) {
    recovered_at_ = host_.simulation().now();
    awaiting_recovery_ = false;
  }
}

void Manager::write_snapshot(store::Encoder& out) const {
  out.u64(static_cast<std::uint64_t>(ads_.size()));
  for (const auto& [name, e] : ads_) {  // std::map: deterministic order
    out.str(name);
    out.f64(e.received_at);
    out.str(e.ad.to_string());
  }
}

void Manager::load_snapshot(store::Decoder& in) {
  std::uint64_t n = 0;
  if (!in.u64(n)) return;
  for (std::uint64_t i = 0; i < n; ++i) {
    std::string name;
    double at = 0;
    std::string text;
    if (!in.str(name) || !in.f64(at) || !in.str(text)) return;
    ads_[name] = AdEntry{classad::ClassAd::parse(text), at};
  }
}

void Manager::apply_record(store::Decoder& in) {
  std::uint8_t op = 0;
  if (!in.u8(op)) return;
  if (op == kOpPut) {
    std::string name;
    double at = 0;
    std::string text;
    if (!in.str(name) || !in.f64(at) || !in.str(text)) return;
    ads_[name] = AdEntry{classad::ClassAd::parse(text), at};
  } else if (op == kOpErase) {
    std::string name;
    if (in.str(name)) ads_.erase(name);
  }
}

const classad::ClassAd* Manager::find_machine(const std::string& name) const {
  auto it = ads_.find(name);
  return it == ads_.end() ? nullptr : &it->second.ad;
}

double Manager::total_attrs() const {
  double n = 0;
  for (const auto& [name, e] : ads_) n += static_cast<double>(e.ad.size());
  return n;
}

bool Manager::expire_and_check_stale() {
  double now = host_.simulation().now();
  if (resilience_.server.serve_stale && port_.overloaded() && !ads_.empty()) {
    // Degraded mode under shed pressure: keep answering from expired ads
    // instead of dropping them — the staleness is visible to the client.
    return true;
  }
  if (config_.ad_lifetime > 0) {
    for (auto it = ads_.begin(); it != ads_.end();) {
      if (now - it->second.received_at > config_.ad_lifetime) {
        if (log_) {
          store::Encoder rec;
          rec.u8(kOpErase);
          rec.str(it->first);
          log_->append(rec.take());  // flushed by the group-commit window
        }
        it = ads_.erase(it);
      } else {
        ++it;
      }
    }
  }
  if (config_.stale_after <= 0 || ads_.empty()) return false;
  double newest = -1;
  for (const auto& [name, e] : ads_) {
    if (e.received_at > newest) newest = e.received_at;
  }
  return now - newest > config_.stale_after;
}

sim::Task<bool> Manager::advertise(net::Interface& from, classad::ClassAd ad,
                                   double wire_bytes) {
  if (wire_bytes < 0) wire_bytes = ad.wire_bytes();
  co_await net_.transfer(from, nic_, wire_bytes);
  if (!port_.try_admit()) {
    ++ads_dropped_;  // UDP-style: overloaded (or dead) manager loses ads
    co_return false;
  }
  net::AdmissionSlot slot(&port_);
  auto lease = co_await thread_.acquire();
  co_await host_.cpu().consume(config_.ad_process_cpu);
  ++ads_received_;

  double now = host_.simulation().now();
  std::string machine = "unknown";
  {
    auto v = ad.evaluate("Name");
    if (v.is_string()) machine = v.as_string();
  }
  for (const auto& trig : triggers_) {
    if (classad::one_way_match(trig.ad, ad, now)) {
      ++trigger_firings_;
      if (trig.action) trig.action(trig.name, machine);
    }
  }
  if (log_) {
    store::Encoder rec;
    rec.u8(kOpPut);
    rec.str(machine);
    rec.f64(now);
    rec.str(ad.to_string());
    log_->append(rec.take());
  }
  ads_[machine] = AdEntry{std::move(ad), now};
  // Durable modes hold the (UDP-ish) ingest until the ad is on the
  // platter — the single daemon thread is pinned for the fsync, which is
  // exactly the overhead the durability benchmark measures.
  if (log_) co_await log_->commit();
  note_recovery_progress();
  co_return true;
}

sim::Task<HawkeyeReply> Manager::query_status(net::Interface& client,
                                              trace::Ctx ctx) {
  HawkeyeReply reply;
  net::AdmissionSlot slot =
      co_await exchange_.open(client, config_.request_bytes, ctx, reply);
  if (!slot) co_return reply;
  {
    trace::Span wait(ctx, trace::SpanKind::PoolWait, "manager");
    auto lease = co_await thread_.acquire();
    wait.end();
    reply.stale = expire_and_check_stale();
    trace::Span cpu(ctx, trace::SpanKind::Cpu, "status");
    co_await host_.cpu().consume(config_.query_base_cpu);
    // Summary line per machine straight out of the indexed store: a fixed
    // handful of attributes each.
    double attrs = 10.0 * static_cast<double>(ads_.size());
    co_await host_.cpu().consume(config_.status_cpu_per_attr * attrs);
    cpu.end();
    reply.machines = ads_.size();
    reply.response_bytes =
        config_.status_bytes_per_machine * static_cast<double>(ads_.size());
    reply.admitted = true;
    // Single-threaded daemon: the blocking response send happens inside
    // the service thread.
    co_await exchange_.respond(client, ctx, reply);
  }
  co_return reply;
}

sim::Task<HawkeyeReply> Manager::query_dump(net::Interface& client,
                                            trace::Ctx ctx) {
  HawkeyeReply reply;
  net::AdmissionSlot slot =
      co_await exchange_.open(client, config_.request_bytes, ctx, reply);
  if (!slot) co_return reply;
  {
    trace::Span wait(ctx, trace::SpanKind::PoolWait, "manager");
    auto lease = co_await thread_.acquire();
    wait.end();
    reply.stale = expire_and_check_stale();
    trace::Span cpu(ctx, trace::SpanKind::Cpu, "dump");
    co_await host_.cpu().consume(config_.query_base_cpu);
    co_await host_.cpu().consume(config_.dump_cpu_per_attr * total_attrs());
    cpu.end();
    double bytes = 0;
    for (const auto& [name, e] : ads_) bytes += e.ad.wire_bytes();
    reply.machines = ads_.size();
    reply.response_bytes = bytes;
    reply.admitted = true;
    co_await exchange_.respond(client, ctx, reply);
  }
  co_return reply;
}

sim::Task<HawkeyeReply> Manager::query_constraint(
    net::Interface& client, std::string constraint, trace::Ctx ctx) {
  auto& sim = host_.simulation();
  HawkeyeReply reply;
  net::AdmissionSlot slot = co_await exchange_.open(
      client,
      config_.request_bytes + static_cast<double>(constraint.size()), ctx,
      reply);
  if (!slot) co_return reply;
  {
    trace::Span wait(ctx, trace::SpanKind::PoolWait, "manager");
    auto lease = co_await thread_.acquire();
    wait.end();
    reply.stale = expire_and_check_stale();
    {
      trace::Span cpu(ctx, trace::SpanKind::Cpu, "query_base",
                      config_.query_base_cpu);
      co_await host_.cpu().consume(config_.query_base_cpu);
    }
    trace::Span scan(ctx, trace::SpanKind::ClassAdEval, constraint,
                     static_cast<double>(ads_.size()));
    auto expr = classad::parse_expression(constraint);
    co_await host_.cpu().consume(config_.match_cpu_per_ad *
                                 static_cast<double>(ads_.size()));
    double bytes = 128;  // envelope
    std::size_t matches = 0;
    for (const auto& [name, e] : ads_) {
      if (classad::satisfies(e.ad, *expr, sim.now())) {
        ++matches;
        bytes += e.ad.wire_bytes();
      }
    }
    scan.end();
    reply.machines = matches;
    reply.response_bytes = bytes;
    reply.admitted = true;
    co_await exchange_.respond(client, ctx, reply);
  }
  co_return reply;
}

sim::Task<HawkeyeReply> Manager::lookup_agent(net::Interface& client,
                                              std::string machine,
                                              std::string* address_out,
                                              trace::Ctx ctx) {
  HawkeyeReply reply;
  net::AdmissionSlot slot =
      co_await exchange_.open(client, config_.request_bytes, ctx, reply);
  if (!slot) co_return reply;
  {
    trace::Span wait(ctx, trace::SpanKind::PoolWait, "manager");
    auto lease = co_await thread_.acquire();
    wait.end();
    reply.stale = expire_and_check_stale();
    trace::Span cpu(ctx, trace::SpanKind::Cpu, "lookup");
    co_await host_.cpu().consume(config_.query_base_cpu);
    cpu.end();
    const classad::ClassAd* ad = find_machine(machine);  // indexed lookup
    if (ad != nullptr) {
      reply.machines = 1;
      if (address_out != nullptr) *address_out = machine;
    }
    reply.response_bytes = 256;
    reply.admitted = true;
    co_await exchange_.respond(client, ctx, reply);
  }
  co_return reply;
}

void Manager::add_trigger(const std::string& name, classad::ClassAd trigger,
                          TriggerAction action) {
  triggers_.push_back(Trigger{name, std::move(trigger), std::move(action)});
}

void Manager::add_email_trigger(const std::string& name,
                                const std::string& requirements,
                                net::Interface& admin, TriggerAction action) {
  classad::ClassAd trigger;
  trigger.insert("MyType", "Trigger");
  trigger.insert("Job", "mail admin");
  trigger.insert_text("Requirements", requirements);
  net::Interface* admin_ptr = &admin;
  TriggerAction after = std::move(action);
  add_trigger(name, std::move(trigger),
              [this, admin_ptr, after](const std::string& trigger_name,
                                       const std::string& machine) {
                host_.simulation().spawn(
                    send_email(admin_ptr, trigger_name, machine, after));
              });
}

sim::Task<void> Manager::send_email(net::Interface* admin,
                                    std::string trigger_name,
                                    std::string machine,
                                    TriggerAction after) {
  // Compose + hand to the MTA, then push the message to the admin host.
  co_await host_.cpu().consume(0.005);
  co_await net_.transfer(nic_, *admin, 2048);
  ++emails_sent_;
  if (after) after(trigger_name, machine);
}

}  // namespace gridmon::hawkeye
