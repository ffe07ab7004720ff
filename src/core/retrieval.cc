#include "core/retrieval.h"

#include <algorithm>

namespace proteus::core {

void Retrieval::span(obs::SpanKind kind, int server, obs::SpanCause cause) {
  if (ctx_ == nullptr || !ctx_->active()) return;
  ctx_->child(opt_->span_clock ? opt_->span_clock() : obs::span_clock_now(),
              kind, server, cause, key_);
}

Retrieval::Action Retrieval::start(std::string_view key, int replicas,
                                   SimTime now, obs::TraceContext* ctx) {
  key_ = key;
  replicas_ = replicas;
  now_ = now;
  ctx_ = ctx;
  ring_ = 0;
  repair_.clear();
  corrupt_ = 0;
  degraded_ = false;
  value_.clear();
  if (opt_->span_bookkeeping) span(obs::SpanKind::kRoute);
  return {Step::kRoute, 0};
}

Retrieval::Action Retrieval::routed(const cluster::Router::Decision& d) {
  d_ = d;
  at_old_ = false;
  if (opt_->span_bookkeeping && d.old >= 0) {  // in a transition
    span(obs::SpanKind::kDigestConsult, d.primary,
         d.fallback >= 0 ? obs::SpanCause::kDigestHot
                         : obs::SpanCause::kDigestCold);
  }
  return {Step::kGet, ring_, d.primary,
          ring_ == 0 ? obs::SpanKind::kCacheGet : obs::SpanKind::kFailover};
}

Retrieval::Action Retrieval::got(Reply reply, std::string value) {
  if (reply == Reply::kHit) value_ = std::move(value);
  return on_reply(reply);
}

Retrieval::Action Retrieval::got(Reply reply, std::string_view value) {
  if (reply == Reply::kHit) value_.assign(value);
  return on_reply(reply);
}

Retrieval::Action Retrieval::on_reply(Reply reply) {
  static constexpr obs::SpanCause kCause[] = {
      obs::SpanCause::kHit,         obs::SpanCause::kMiss,
      obs::SpanCause::kDown,        obs::SpanCause::kQuarantined,
      obs::SpanCause::kShed,        obs::SpanCause::kCorrupt};
  const int server = at_old_ ? d_.fallback : d_.primary;
  if (opt_->span_gets) {
    span(at_old_ ? obs::SpanKind::kMigrationFetch
         : ring_ == 0 ? obs::SpanKind::kCacheGet
                      : obs::SpanKind::kFailover,
         server, kCause[static_cast<int>(reply)]);
  }
  switch (reply) {
    case Reply::kHit:
      if (at_old_) {
        bump(opt_->counters.old_server_hits);
        emit(obs::TraceEventKind::kMigrationHit, server, d_.primary,
             value_.size());
        root(obs::SpanCause::kOldHit);
      } else {
        bump(ring_ == 0 ? opt_->counters.primary_hits
                        : opt_->counters.replica_hits);
        root(ring_ == 0 ? obs::SpanCause::kHit : obs::SpanCause::kFailoverHit);
      }
      if (repair_.empty()) return finish(false);
      // Line 12: on-demand migration and §III-E read repair. Under overload
      // the throttle defers the whole set; the value is still served.
      if (opt_->throttle != nullptr) {
        if (opt_->throttle_signal != nullptr) {
          opt_->throttle->set_overloaded(opt_->throttle_signal->overloaded());
        }
        if (!opt_->throttle->allow(now_)) {
          bump(opt_->counters.migrations_deferred);
          for (int target : repair_) {
            emit(obs::TraceEventKind::kMigrationDeferred, server, target,
                 value_.size());
          }
          span(obs::SpanKind::kMigrationStore, repair_.front(),
               obs::SpanCause::kThrottled);
          return finish(false);
        }
      }
      return store(obs::SpanKind::kMigrationStore);
    case Reply::kShed:
      if (ring_ == 0 && !at_old_) {
        // The foreground primary refused: the backend instead would turn a
        // cache overload into a database overload. Answer degraded.
        root(obs::SpanCause::kShed);
        return finish(true);
      }
      break;  // a shed old-location (`bg`) or failover get: no answer
    case Reply::kDown:
    case Reply::kQuarantined:
      if (!at_old_) bump(opt_->counters.skips);
      break;
    case Reply::kCorrupt:
      ++corrupt_;
      if (!at_old_) add_repair(server);
      break;
    case Reply::kMiss:
      if (!at_old_) {
        add_repair(server);
      } else {  // §IV-B false positive: the digest said hot
        bump(opt_->counters.false_positives);
        emit(obs::TraceEventKind::kDigestFalsePositive, server, d_.primary, 0);
      }
      break;
  }
  if (at_old_) return next_ring();
  if (d_.fallback >= 0) {  // lines 6-8: hot on its old location
    at_old_ = true;
    return {Step::kGet, ring_, d_.fallback, obs::SpanKind::kMigrationFetch};
  }
  if (reply == Reply::kMiss && opt_->counters.false_negatives != nullptr &&
      d_.old >= 0 && d_.old != d_.primary) {
    return {Step::kProbe, ring_, d_.old};  // the digest called it cold
  }
  return next_ring();
}

Retrieval::Action Retrieval::probed(bool resident) {
  if (resident) {
    bump(opt_->counters.false_negatives);
    emit(obs::TraceEventKind::kDigestFalseNegative, d_.old, d_.primary, 0);
  }
  return next_ring();
}

Retrieval::Action Retrieval::next_ring() {
  if (++ring_ < replicas_) return {Step::kRoute, ring_};
  return {Step::kBackend};  // line 10: the backend is authoritative
}

void Retrieval::add_repair(int server) {
  if (std::find(repair_.begin(), repair_.end(), server) == repair_.end()) {
    repair_.push_back(server);
  }
}

Retrieval::Action Retrieval::fetched(Fetch result, std::string value) {
  if (result == Fetch::kShed) {
    bump(opt_->counters.load_sheds);
    span(obs::SpanKind::kBackendFetch, -1, obs::SpanCause::kShed);
    root(obs::SpanCause::kShed);
    return finish(true);
  }
  const bool coalesced = result == Fetch::kCoalesced;
  bump(coalesced ? opt_->counters.coalesced_fetches
                 : opt_->counters.backend_fetches);
  span(obs::SpanKind::kBackendFetch, -1,
       coalesced ? obs::SpanCause::kCoalesced : obs::SpanCause::kBackendFill);
  root(obs::SpanCause::kBackendFill);
  value_ = std::move(value);
  // The fetch that led fills for everyone: skipping the writes is the point
  // of collapsing the fetch.
  return coalesced ? finish(false) : store(obs::SpanKind::kFill);
}

Retrieval::Action Retrieval::store(obs::SpanKind kind) {
  if (!repair_.empty()) bump(opt_->counters.read_repairs, corrupt_);
  store_kind_ = kind;
  next_store_ = 0;
  return next_store();
}

Retrieval::Action Retrieval::stored(bool ok) {
  if (opt_->span_bookkeeping) {
    span(store_kind_, repair_[next_store_],
         ok ? obs::SpanCause::kStored : obs::SpanCause::kDown);
  }
  ++next_store_;
  return next_store();
}

Retrieval::Action Retrieval::next_store() {
  if (next_store_ == repair_.size()) return finish(false);
  return {Step::kStore, ring_, repair_[next_store_], store_kind_};
}

}  // namespace proteus::core
