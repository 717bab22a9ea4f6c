// The serve layer's two-tier content-addressed result cache.
//
// Key: ScenarioSpec::identity_hash — the same 16-hex content hash the
// campaign journal caches on, so "has this exact experiment already
// been computed?" has one answer across the daemon, antdense_sweep, and
// anything else that speaks the identity vocabulary.  Identical specs
// collide by construction (threads excluded, topology canonicalized);
// distinct specs get distinct entries.
//
// Tier 1 — memory: an LRU map bounded by payload bytes.  Hits are a
// map lookup plus a list splice.
//
// Tier 2 — disk: an append-only journal in the campaign-journal format
// ("antdense.campaign.v1" JSONL, torn-tail tolerant), carrying the full
// canonical result document under "result".  On construction the cache
// indexes the journal by byte offset — restart warm-up is an index
// scan, not a result re-computation — and a tier-2 hit seeks, re-parses
// one line, and promotes the payload into tier 1.  Because records are
// canonical compact dumps and the JSON writer's number formatting
// round-trips exactly, a journal-warmed payload is byte-identical to
// the cold one.
//
// Misses run under single-flight dedup: N concurrent requests for one
// id coalesce onto a single execution, the rest block on its completion
// and count as hits (they were served without executing anything).
//
// Thread-safe throughout; the execute callback runs outside all cache
// locks.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "campaign/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "util/json.hpp"

namespace antdense::serve {

/// Snapshot for the cache_stats endpoint and the cache tests.  The
/// authoritative counters live on an obs::MetricsRegistry (the
/// daemon's, or a private one when none is supplied); this struct is
/// the endpoint's stable JSON shape read back from them.  Hit
/// accounting: hits_memory + hits_disk + coalesced requests were served
/// without a new execution; misses == executions always (every miss
/// executes exactly once; coalesced waiters are not misses).
struct CacheStats {
  std::uint64_t hits_memory = 0;
  std::uint64_t hits_disk = 0;
  std::uint64_t misses = 0;
  std::uint64_t coalesced = 0;   // waited on another request's execution
  std::uint64_t executions = 0;
  std::uint64_t evictions = 0;
  std::uint64_t entries = 0;        // tier-1 entries right now
  std::uint64_t bytes = 0;          // tier-1 payload bytes right now
  std::uint64_t capacity_bytes = 0;
  std::uint64_t in_flight = 0;      // executions running right now
  std::uint64_t warm_loaded = 0;    // ids indexed from the journal at start
  /// Disk-tier journal size in bytes.  The journal only grows (no
  /// disk-tier eviction yet — ROADMAP item 6), so this is the number
  /// to watch on a long-lived daemon.
  std::uint64_t journal_bytes = 0;

  std::uint64_t hits_total() const {
    return hits_memory + hits_disk + coalesced;
  }

  util::JsonValue to_json() const;
};

/// One answered lookup: the canonical result payload plus whether it
/// was served from cache (memory, disk, or a coalesced wait) rather
/// than executed by this call.
struct CacheOutcome {
  std::string payload;
  bool cache_hit = false;
};

class ResultCache {
 public:
  /// `journal_path` empty = memory-only (no tier 2, nothing survives a
  /// restart); otherwise the journal is created/opened for append and
  /// its existing records are indexed as the warm disk tier.
  /// `cache_name` labels the journal records' "campaign" field.
  /// `telemetry.metrics` hosts the cache's counters/gauges (a private
  /// registry is created when null, so stats() always works);
  /// `telemetry.trace` receives cache-lookup / journal-append spans.
  ResultCache(std::string journal_path, std::uint64_t capacity_bytes,
              std::string cache_name = "antdense_serve",
              obs::Telemetry telemetry = {});

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// The cache's one verb.  Returns the canonical payload for `id`,
  /// executing `execute` (which must return that payload) only when no
  /// tier holds it and no other request is already computing it.
  /// `execute` runs outside all cache locks; if it throws, every
  /// coalesced waiter rethrows the same exception and the id stays
  /// uncached (the next request retries).
  CacheOutcome get_or_run(const std::string& id,
                          const std::function<std::string()>& execute);

  /// Non-executing lookup (memory, then disk, with promotion); false
  /// when neither tier holds the id.  Counts hit/miss stats.
  bool lookup(const std::string& id, std::string* payload);

  /// Test visibility: whether tier 1 currently holds `id` (no stats
  /// mutation, no promotion).
  bool in_memory(const std::string& id) const;

  CacheStats stats() const;

 private:
  struct DiskSlot {
    std::uint64_t offset = 0;  // byte offset of the record line
    std::uint64_t length = 0;  // line length excluding '\n'
  };
  struct InFlight {
    std::mutex mutex;
    std::condition_variable cv;
    bool done = false;
    std::string payload;
    std::exception_ptr error;
  };

  /// Inserts into tier 1 and evicts from the cold end until the byte
  /// budget holds.  Caller holds mutex_.
  void insert_memory_locked(const std::string& id, const std::string& payload);
  /// Refreshes the level gauges from tier-1/in-flight state.  Caller
  /// holds mutex_.
  void update_gauges_locked();
  /// Reads the record at `slot` and extracts its canonical payload.
  std::string read_disk_slot(const DiskSlot& slot) const;

  const std::string journal_path_;
  const std::string cache_name_;
  const std::uint64_t capacity_bytes_;

  // The counters live on a MetricsRegistry so the daemon's `metrics`
  // endpoint exports them alongside everything else; a cache built
  // without one gets its own private registry.
  std::unique_ptr<obs::MetricsRegistry> own_registry_;
  obs::TraceRecorder* trace_ = nullptr;
  obs::Counter* hits_memory_ = nullptr;
  obs::Counter* hits_disk_ = nullptr;
  obs::Counter* misses_ = nullptr;
  obs::Counter* coalesced_ = nullptr;
  obs::Counter* executions_ = nullptr;
  obs::Counter* evictions_ = nullptr;
  obs::Gauge* entries_gauge_ = nullptr;
  obs::Gauge* bytes_gauge_ = nullptr;
  obs::Gauge* in_flight_gauge_ = nullptr;
  obs::Gauge* journal_bytes_gauge_ = nullptr;
  std::uint64_t warm_loaded_ = 0;

  mutable std::mutex mutex_;
  // Tier 1: lru_ front = hottest; entries_ maps id -> (payload, lru pos).
  std::list<std::string> lru_;
  struct MemEntry {
    std::string payload;
    std::list<std::string>::iterator lru_pos;
  };
  std::unordered_map<std::string, MemEntry> entries_;
  std::uint64_t bytes_ = 0;
  // Tier 2.
  std::unique_ptr<campaign::Journal> journal_;
  std::unordered_map<std::string, DiskSlot> disk_index_;
  std::uint64_t file_end_ = 0;  // append offset (this cache is the sole writer)
  // Single-flight.
  std::unordered_map<std::string, std::shared_ptr<InFlight>> in_flight_;
};

}  // namespace antdense::serve
