#include "gridmon/rgma/registry.hpp"

namespace gridmon::rgma {
namespace {

std::string quote(const std::string& s) {
  return rdbms::Value::text(s).to_string();
}

}  // namespace

Registry::Registry(net::Network& net, host::Host& host, net::Interface& nic,
                   RegistryConfig config)
    : net_(net),
      host_(host),
      nic_(nic),
      config_(config),
      pool_(host.simulation(), config.pool_size),
      port_(host.simulation(), config.backlog) {
  db_.execute(
      "CREATE TABLE producers (producer TEXT, tablename TEXT, servlet TEXT, "
      "predicate TEXT, expires REAL)");
  db_.execute("CREATE INDEX ON producers (tablename)");
  if (config_.store.enabled()) {
    store_ = std::make_unique<store::TableStore>(host, db_.table("producers"),
                                                 config_.store);
    db_.table("producers").set_journal(store_.get());
    store_->log().start();
  }
}

void Registry::crash(bool blackhole) {
  port_.crash(blackhole);
  if (store_) store_->log().crash();
  rows_at_crash_ = db_.table("producers").row_count();
  awaiting_recovery_ = true;
  recovered_at_ = -1;
  // The in-process producer table dies with the servlet container. With
  // durability off producers re-appear only as their servlets renew
  // leases; the store's crash() above already closed the log, so this
  // clearing sweep journals nothing.
  db_.execute("DELETE FROM producers WHERE expires < 1e300");
  db_.table("producers").vacuum();
}

void Registry::restart() {
  if (store_) {
    host_.simulation().spawn(recover_then_restart());
    return;
  }
  port_.restart();
  note_recovery_progress();
}

sim::Task<void> Registry::recover_then_restart() {
  co_await store_->log().recover();
  port_.restart();
  note_recovery_progress();
}

void Registry::note_recovery_progress() {
  if (awaiting_recovery_ && registered_count() >= rows_at_crash_) {
    recovered_at_ = host_.simulation().now();
    awaiting_recovery_ = false;
  }
}

sim::Task<bool> Registry::register_producer(net::Interface& from,
                                            ProducerInfo info) {
  co_await net_.transfer(from, nic_, config_.request_bytes);
  if (!port_.try_admit()) co_return false;
  net::AdmissionSlot slot(&port_);
  auto lease = co_await pool_.acquire();
  co_await host_.cpu().consume(config_.register_cpu);

  double expires = host_.simulation().now() + config_.lease_seconds;
  auto existing = db_.execute("SELECT producer FROM producers WHERE producer = " +
                              quote(info.producer));
  co_await host_.cpu().consume(config_.row_cpu *
                               static_cast<double>(existing.rows_examined));
  if (!existing.rows.empty()) {
    db_.execute("DELETE FROM producers WHERE producer = " +
                quote(info.producer));
  }
  db_.execute("INSERT INTO producers VALUES (" + quote(info.producer) + ", " +
              quote(info.table) + ", " + quote(info.servlet) + ", " +
              quote(info.predicate) + ", " + std::to_string(expires) + ")");
  ++registrations_;
  // Durable modes: the registration is acknowledged only once its WAL
  // records reached the platter (group commit batches concurrent ones).
  if (store_) co_await store_->log().commit();
  note_recovery_progress();
  co_await net_.transfer(nic_, from, 128);  // ack
  co_return true;
}

sim::Task<rdbms::QueryResult> Registry::run_lookup(std::string table,
                                                   trace::Ctx ctx) {
  trace::Span sql(ctx, trace::SpanKind::SqlExecute, "producers");
  double now = host_.simulation().now();
  auto result = db_.execute(
      "SELECT producer, tablename, servlet, predicate FROM producers WHERE "
      "tablename = " +
      quote(table) + " AND expires >= " + std::to_string(now));
  sql.set_arg(static_cast<double>(result.rows_examined));
  co_await host_.cpu().consume(config_.row_cpu *
                               static_cast<double>(result.rows_examined));
  co_return result;
}

sim::Task<std::vector<ProducerInfo>> Registry::lookup(
    net::Interface& from, std::string table, trace::Ctx ctx) {
  trace::Span op(ctx, trace::SpanKind::RegistryLookup, table);
  std::vector<ProducerInfo> out;
  co_await net_.transfer(from, nic_, config_.request_bytes, op.ctx(),
                         trace::SpanKind::RequestSend);
  if (!port_.try_admit()) {
    if (ctx) ctx.col->instant(ctx, trace::SpanKind::Refused, "registry");
    co_return out;
  }
  net::AdmissionSlot slot(&port_);
  {
    trace::Span wait(op.ctx(), trace::SpanKind::PoolWait, "registry");
    auto lease = co_await pool_.acquire();
    wait.end();
    {
      trace::Span cpu(op.ctx(), trace::SpanKind::Cpu, "query_base",
                      config_.query_base_cpu);
      co_await host_.cpu().consume(config_.query_base_cpu);
    }
    {
      trace::Span servlet(op.ctx(), trace::SpanKind::Servlet);
      co_await host_.simulation().delay(config_.servlet_latency);
    }
    auto result = co_await run_lookup(table, op.ctx());
    for (const auto& row : result.rows) {
      out.push_back(ProducerInfo{row[0].as_text(), row[1].as_text(),
                                 row[2].as_text(), row[3].as_text()});
    }
  }
  co_await net_.transfer(
      nic_, from, 128 + config_.row_bytes * static_cast<double>(out.size()),
      op.ctx(), trace::SpanKind::ResponseSend);
  co_return out;
}

sim::Task<RgmaReply> Registry::client_query(net::Interface& client,
                                            std::string table,
                                            trace::Ctx ctx) {
  RgmaReply reply;
  net::AdmissionSlot slot =
      co_await exchange_.open(client, config_.request_bytes, ctx, reply);
  if (!slot) co_return reply;
  {
    trace::Span wait(ctx, trace::SpanKind::PoolWait, "registry");
    auto lease = co_await pool_.acquire();
    wait.end();
    {
      trace::Span cpu(ctx, trace::SpanKind::Cpu, "query_base",
                      config_.query_base_cpu);
      co_await host_.cpu().consume(config_.query_base_cpu);
    }
    {
      trace::Span servlet(ctx, trace::SpanKind::Servlet);
      co_await host_.simulation().delay(config_.servlet_latency);
    }
    auto result = co_await run_lookup(table, ctx);
    reply.rows = result.rows.size();
    reply.response_bytes =
        128 + config_.row_bytes * static_cast<double>(result.rows.size());
    reply.admitted = true;
  }
  co_await exchange_.respond(client, ctx, reply);
  co_return reply;
}

void Registry::start_sweeper() {
  host_.simulation().spawn(sweeper_loop());
}

sim::Task<void> Registry::sweeper_loop() {
  auto& sim = host_.simulation();
  for (;;) {
    co_await sim.delay(config_.sweep_interval);
    auto lease = co_await pool_.acquire();
    co_await host_.cpu().consume(config_.register_cpu);
    auto result = db_.execute("DELETE FROM producers WHERE expires < " +
                              std::to_string(sim.now()));
    co_await host_.cpu().consume(config_.row_cpu *
                                 static_cast<double>(result.rows_examined));
    db_.table("producers").vacuum();
    // Lease sweeps mutate durable state too; bound how long they can sit
    // un-flushed (nobody waits on the sweep, so this only costs the loop).
    if (store_) co_await store_->log().commit();
  }
}

std::size_t Registry::registered_count() {
  return db_.table("producers").row_count();
}

}  // namespace gridmon::rgma
