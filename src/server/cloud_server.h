// The DeltaCFS cloud (§III): stores file versions, applies incremental
// data, detects conflicts with first-write-wins semantics, applies
// backindex groups transactionally, and forwards applied records to other
// clients sharing the namespace (§III-D).
//
// The server is deliberately thin — the paper's point is that it "only
// needs to apply incremental data generated by clients" — so its CPU meter
// mostly counts bytes received and bytes written.
//
// Every record reaches the apply layer through one pipeline.  pump()
// drains the attached transports in order; intake decompresses each record
// and buffers transactional groups until their closer arrives.  The batch
// is then partitioned into independent work units by touched-path sets
// (a completed group is one atomic unit), each unit's shard of the state is
// extracted and applied on a dcfs::par::WorkerPool, the shards are
// committed back, and acks and forwards are emitted in arrival order.
// With ServerConfig::apply_shards = 1 the pool has no workers and the same
// phases run inline on the caller.  Server state, ack sequences, CostMeter
// totals and counters are byte-identical at every shard count
// (tests/server_parallel_test.cc pins them to recorded digests;
// docs/PERFORMANCE.md has the argument).  apply_record() is a one-record
// batch through the same pipeline.
//
// Version history (§III-C) is block-backed copy-on-write: history entries
// hold refcounted BlockStore handles instead of full content copies, so
// near-identical versions of a file dedup to their changed chunks.
// History trimming and tombstone GC release chunks through shared_ptr
// deleters.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <utility>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "metrics/cost.h"
#include "net/transport.h"
#include "obs/obs.h"
#include "par/worker_pool.h"
#include "proto/messages.h"
#include "server/block_store.h"
#include "wire/wire.h"

namespace dcfs {

struct ServerConfig {
  /// Versions kept per file for delta bases and conflict copies (§III-C).
  std::size_t history_depth = 16;
  /// Concurrent apply lanes for pump(); 1 runs the pipeline on the caller.
  std::size_t apply_shards = 1;
  /// Chunking of the block-backed version history.
  rsyncx::CdcParams chunking = rsyncx::CdcParams::fine();
  /// Adaptive wire compression (dcfs::wire) on every frame this server
  /// sends or receives.  Must match the clients'
  /// ClientConfig::wire_compression (a framing contract, like bundling).
  bool wire_compression = false;
  wire::CodecConfig wire_config = {};
};

class CloudServer {
 public:
  CloudServer(const CostProfile& profile, ServerConfig config,
              obs::Obs* obs = nullptr);
  explicit CloudServer(const CostProfile& profile,
                       std::size_t history_depth = 16,
                       obs::Obs* obs = nullptr);

  /// Connects a client's transport; the server polls it in pump() and uses
  /// it for acks and forwarded records.
  void attach(std::uint32_t client_id, Transport& transport);
  void detach(std::uint32_t client_id);

  /// Drains every attached transport: decodes records (unpacking
  /// record_bundle frames), applies them (or buffers transactional
  /// groups) on the worker pool, sends acks, forwards to peers.  All
  /// outputs are emitted in arrival order.  Returns the number of records
  /// processed.
  std::size_t pump();

  /// Direct-call apply (single-threaded simulations without framing): a
  /// one-record batch through pump()'s pipeline.  Forwards like pump()
  /// but returns the ack instead of sending it.
  proto::Ack apply_record(std::uint32_t from_client,
                          const proto::SyncRecord& record);

  // ---- Recovery / introspection ----

  /// Latest content of a file (the recovery RPC used after corruption).
  [[nodiscard]] Result<Bytes> fetch(std::string_view path) const;

  /// Fine-grained version control (§III-C): the server keeps recent
  /// versions of every file.  `history` lists the stored versions (newest
  /// first, starting with the current one); `fetch_version` retrieves one
  /// (reassembling block-backed versions from the store).
  [[nodiscard]] std::vector<proto::VersionId> history(
      std::string_view path) const;
  [[nodiscard]] Result<Bytes> fetch_version(
      std::string_view path, const proto::VersionId& version) const;
  [[nodiscard]] std::optional<proto::VersionId> version(
      std::string_view path) const;
  [[nodiscard]] std::vector<std::string> paths() const;
  [[nodiscard]] std::vector<std::string> conflict_paths() const;
  [[nodiscard]] bool has_dir(std::string_view path) const;

  /// Drops every tombstone (files unlinked and not recreated), releasing
  /// the block-store chunks their preserved history referenced.  Returns
  /// the number of tombstones collected.
  std::size_t gc_tombstones();

  /// Paths in the order their first content arrived (causality probe).
  [[nodiscard]] const std::vector<std::string>& arrival_order() const noexcept {
    return arrival_order_;
  }

  [[nodiscard]] const CostMeter& meter() const noexcept { return meter_; }
  [[nodiscard]] CostMeter& meter() noexcept { return meter_; }
  [[nodiscard]] std::uint64_t records_applied() const noexcept {
    return records_applied_;
  }
  [[nodiscard]] std::uint64_t conflicts_seen() const noexcept {
    return conflicts_seen_;
  }
  [[nodiscard]] std::uint64_t txn_groups_applied() const noexcept {
    return txn_groups_applied_;
  }
  /// Reconciliation rounds answered (OpKind::recon_query frames).
  [[nodiscard]] std::uint64_t recon_queries() const noexcept {
    return recon_queries_;
  }
  /// Chunk streams opened / chunks staged (OpKind::stream_* frames).
  [[nodiscard]] std::uint64_t streams_opened() const noexcept {
    return streams_opened_;
  }
  [[nodiscard]] std::uint64_t stream_chunks() const noexcept {
    return stream_chunks_;
  }
  /// Streams currently staged (opened, not yet committed or aborted).
  [[nodiscard]] std::size_t streams_active() const noexcept {
    return streams_.size();
  }
  [[nodiscard]] const ServerConfig& config() const noexcept { return config_; }
  /// The history storage engine (chunk-level dedup accounting).
  [[nodiscard]] const BlockStore& store() const noexcept { return store_; }
  /// Null unless ServerConfig::wire_compression.
  [[nodiscard]] wire::Codec* wire_codec() noexcept { return wire_.get(); }

  /// Records the server could not apply cleanly (diagnostics / tests).
  struct Rejection {
    proto::OpKind kind;
    std::string path;
    std::string path2;
    Errc result;
    proto::VersionId base_version;
  };
  [[nodiscard]] const std::vector<Rejection>& rejections() const noexcept {
    return rejections_;
  }

 private:
  struct FileVersion {
    proto::VersionId version;
    /// Refcounted chunks in store_, null for an empty version.  Copies of
    /// the version (group staging, tombstone revival, rename splices)
    /// share one store reference and release it when the last copy dies.
    std::shared_ptr<const BlockHandle> blocks;
  };

  struct FileEntry {
    Bytes content;  ///< current content is always inline
    proto::VersionId version;
    std::deque<FileVersion> history;  ///< most recent first
  };

  using EntryMap = std::map<std::string, FileEntry, std::less<>>;
  /// (client_id, counter) pairs — versions produced by a group's records.
  using VersionSet = std::set<std::pair<std::uint32_t, std::uint64_t>>;
  /// (client_id, txn_group) — each client's group ids live in their own
  /// keyspace, so ids from different clients can never alias.
  using GroupKey = std::pair<std::uint32_t, std::uint64_t>;

  /// Mutable state one apply runs against — a work unit's extracted shard
  /// — plus its harvested side effects, committed in arrival order.
  struct ApplyCtx {
    EntryMap& files;
    EntryMap& tombstones;
    std::set<std::string, std::less<>>& dirs;
    CostMeter& meter;
    std::uint64_t conflicts = 0;
    std::vector<Rejection> rejections = {};
    std::vector<std::string> arrivals = {};
  };

  /// One intake position of a batch (defined in cloud_server.cc).
  struct PumpItem;

  /// Strips the wire layer from an inbound frame (identity when wire
  /// compression is off), charging CostKind::decompress for lz frames.
  Result<Bytes> unwire(Bytes frame);

  /// Decompresses an lz record payload, charging CostKind::decompress.
  Result<Bytes> decompress(const Bytes& payload);

  /// Decompresses (charging the meter) and unpacks a record_bundle frame.
  Result<std::vector<proto::SyncRecord>> unpack_bundle(
      const proto::SyncRecord& record);

  /// Appends `record`'s item to the batch: counts it as applied,
  /// decompresses it, and buffers a transactional group member until the
  /// group's closer arrives (the closer's item carries the whole group).
  void intake(std::uint32_t client_id, proto::SyncRecord record,
              std::vector<PumpItem>& items);

  /// Partitions the batch into units by touched paths, extracts each
  /// unit's shard, applies the units on pool_ and merges the shards back.
  /// Fills every item's ack and side effects; emits nothing.
  void apply_batch(std::vector<PumpItem>& items);

  /// Emits one item's side effects (arrivals, rejections, forwards,
  /// conflict and latency accounting, trace edges) and returns its ack for
  /// the caller to send.  Called in arrival order after apply_batch.
  proto::Ack settle(PumpItem& item);

  /// Applies one record against `files`; `snapshot` (may be null) holds the
  /// pre-group state used to resolve transactional bases.
  proto::Ack apply_one(std::uint32_t from_client,
                       const proto::SyncRecord& record, EntryMap& files,
                       const EntryMap* snapshot,
                       const VersionSet* group_versions, ApplyCtx& ctx);

  /// Applies a completed transactional group atomically against ctx.files;
  /// records to forward on success are appended to `forwards` (the caller
  /// emits them, preserving its own ordering rules).
  std::vector<proto::Ack> apply_group(
      std::uint32_t from_client, const std::vector<proto::SyncRecord>& group,
      ApplyCtx& ctx, std::vector<proto::SyncRecord>& forwards);

  /// Finds content matching `version` for the file named `ref` — current
  /// entry, pre-group snapshot, version history, or tombstones.
  /// `from_history` is set when the match came from a superseded version
  /// (a genuine conflict).  Block-backed versions are reassembled into
  /// `scratch`; the returned pointer may reference it.
  const Bytes* resolve_base(std::string_view ref,
                            const proto::VersionId& version,
                            const EntryMap& files, const EntryMap* snapshot,
                            const EntryMap& tombstones, bool& from_history,
                            Bytes& scratch) const;

  /// A block-backed FileVersion snapshot of `content`.
  FileVersion make_version(const proto::VersionId& version,
                           const Bytes& content);
  /// The version's content, reassembled into `scratch`.  Null only if the
  /// store lost a chunk (a refcount bug).
  const Bytes* version_bytes(const FileVersion& v, Bytes& scratch) const;

  /// Answers one reconciliation round (rsyncx/recon.h): resolves the base
  /// named by the query (the path's current entry or tombstone on round 0,
  /// the pinned exact version afterwards), then streams the requested
  /// regions through a Shingle- or SignatureScanner — block-backed history
  /// versions flow chunk-by-chunk out of the BlockStore, never
  /// materialized.  Replies with a ReconResponse frame (tag 0x03), not an
  /// Ack, and mutates nothing.
  void answer_recon(std::uint32_t client_id, const proto::SyncRecord& record);
  void send_recon(std::uint32_t client_id,
                  const proto::ReconResponse& response);

  // ---- Bounded-window chunk streams (docs/PROTOCOL.md §chunk streams) ----

  /// One open chunk stream from one client: the stream-open record's
  /// metadata plus the chunk bytes staged so far.  O(total file) on the
  /// server by design (the server materializes the file anyway); the
  /// *client-side* window bound is what the credits enforce.
  struct StreamStage {
    proto::SyncRecord open;       ///< stream_open record (path, versions)
    Bytes data;                   ///< chunks appended in order
    std::uint64_t chunks = 0;     ///< next expected 0-based chunk ordinal
    std::uint64_t window = 0;     ///< client's window (from open.offset)
    std::uint64_t uncredited = 0; ///< consumed bytes not yet granted back
  };

  /// What one stream_* record produced: a synthesized full_file record to
  /// apply (commit), or an error ack to emit (protocol violation), or
  /// neither (open/chunk staged successfully).
  struct StreamOutcome {
    std::optional<proto::SyncRecord> record;
    std::optional<proto::Ack> error;
  };

  /// Stages one stream_open / stream_chunk / stream_commit record.  pump()
  /// calls this inline (like answer_recon) before intake;
  /// credits are granted to the client as chunks are consumed.
  StreamOutcome handle_stream(std::uint32_t client_id,
                              proto::SyncRecord record);
  /// Returns `bytes` of window on `stream_id` (frame tag 0x04).
  void send_credit(std::uint32_t client_id, std::uint64_t stream_id,
                   std::uint64_t bytes);

  void push_history(FileEntry& entry);
  void record_arrival(const std::string& path);
  void send_ack(std::uint32_t client_id, const proto::Ack& ack);
  void forward(std::uint32_t from_client, const proto::SyncRecord& record);
  std::string conflict_name(std::string_view path,
                            std::uint32_t client) const;
  void update_store_gauges();

  CostMeter meter_;
  ServerConfig config_;
  /// Declared before the entry maps: their FileVersion handles release
  /// chunks into the store on destruction, so the store must die last.
  BlockStore store_;
  EntryMap files_;
  EntryMap tombstones_;
  std::set<std::string, std::less<>> dirs_;
  /// Transactional groups still waiting for their txn_last record.
  std::map<GroupKey, std::vector<proto::SyncRecord>> groups_;
  std::map<std::uint32_t, Transport*> clients_;
  std::vector<std::string> arrival_order_;
  std::set<std::string> arrived_;
  std::uint64_t records_applied_ = 0;
  std::uint64_t conflicts_seen_ = 0;
  std::uint64_t txn_groups_applied_ = 0;
  std::uint64_t recon_queries_ = 0;
  /// Open chunk streams by (client_id, stream_id).
  std::map<std::pair<std::uint32_t, std::uint64_t>, StreamStage> streams_;
  std::uint64_t streams_opened_ = 0;
  std::uint64_t stream_chunks_ = 0;
  std::vector<Rejection> rejections_;
  std::unique_ptr<par::WorkerPool> pool_;  ///< apply_shards lanes
  std::unique_ptr<wire::Codec> wire_;     ///< null unless wire_compression

  obs::Tracer* tracer_ = nullptr;
  obs::StageLedger* stages_ = nullptr;
  /// Span names interned at wiring time; all 0 when observability is off.
  struct TraceNames {
    obs::NameId apply = 0;
    obs::NameId apply_group = 0;
    obs::NameId recon = 0;
    /// Category per OpKind (indexed by the enum's numeric value).
    std::array<obs::NameId, 16> kind{};
  } tn_;
  /// Bounds-safe kind category (kinds come off the network).
  [[nodiscard]] obs::NameId kind_cat(proto::OpKind kind) const noexcept {
    const auto i = static_cast<std::size_t>(kind);
    return i < tn_.kind.size() ? tn_.kind[i] : obs::NameId{0};
  }
  obs::Counter* applied_counter_ = nullptr;
  obs::Counter* conflict_counter_ = nullptr;
  obs::Counter* recon_counter_ = nullptr;
  obs::Counter* txn_buffered_ = nullptr;
  obs::Counter* txn_groups_counter_ = nullptr;
  obs::Histogram* apply_latency_us_ = nullptr;
  obs::Gauge* store_unique_gauge_ = nullptr;
  obs::Gauge* store_logical_gauge_ = nullptr;
  obs::Gauge* store_dedup_gauge_ = nullptr;
};

}  // namespace dcfs
