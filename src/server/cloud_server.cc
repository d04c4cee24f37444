#include "server/cloud_server.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "compress/lz.h"
#include "rsyncx/delta.h"

namespace dcfs {

CloudServer::CloudServer(const CostProfile& profile, ServerConfig config,
                         obs::Obs* obs)
    : meter_(profile),
      config_(config),
      store_(config.chunking),
      pool_(std::make_unique<par::WorkerPool>(config_.apply_shards, obs)) {
  if (config_.wire_compression) {
    wire_ = std::make_unique<wire::Codec>(config_.wire_config, obs);
  }
  if (obs != nullptr) {
    tracer_ = &obs->tracer;
    stages_ = &obs->stages;
    tn_.apply = tracer_->intern("server.apply");
    tn_.apply_group = tracer_->intern("server.apply_group");
    tn_.recon = tracer_->intern("server.recon");
    for (std::size_t k = static_cast<std::size_t>(proto::OpKind::create);
         k <= static_cast<std::size_t>(proto::OpKind::stream_commit); ++k) {
      tn_.kind[k] =
          tracer_->intern(proto::to_string(static_cast<proto::OpKind>(k)));
    }
    applied_counter_ = &obs->registry.counter("server.records_applied");
    conflict_counter_ = &obs->registry.counter("server.conflicts");
    recon_counter_ = &obs->registry.counter("server.recon.queries");
    txn_buffered_ = &obs->registry.counter("server.txn.buffered_records");
    txn_groups_counter_ = &obs->registry.counter("server.txn.groups_applied");
    apply_latency_us_ = &obs->registry.histogram("server.apply_latency_us");
    store_unique_gauge_ = &obs->registry.gauge("server.store.unique_bytes");
    store_logical_gauge_ = &obs->registry.gauge("server.store.logical_bytes");
    // Ratio scaled by 1000 (gauges are integral): 1500 = 1.5x dedup.
    store_dedup_gauge_ = &obs->registry.gauge("server.store.dedup_ratio");
  }
}

CloudServer::CloudServer(const CostProfile& profile, std::size_t history_depth,
                         obs::Obs* obs)
    : CloudServer(profile, ServerConfig{.history_depth = history_depth},
                  obs) {}

void CloudServer::attach(std::uint32_t client_id, Transport& transport) {
  clients_[client_id] = &transport;
}

void CloudServer::detach(std::uint32_t client_id) {
  clients_.erase(client_id);
}

void CloudServer::update_store_gauges() {
  if (store_unique_gauge_ == nullptr) return;
  store_unique_gauge_->set(static_cast<std::int64_t>(store_.unique_bytes()));
  store_logical_gauge_->set(static_cast<std::int64_t>(store_.logical_bytes()));
  store_dedup_gauge_->set(
      static_cast<std::int64_t>(std::llround(store_.dedup_ratio() * 1000.0)));
}

Result<Bytes> CloudServer::unwire(Bytes frame) {
  if (wire_ == nullptr) return frame;
  wire::DecodeInfo info;
  Result<Bytes> inner = wire_->decode(std::move(frame), &info);
  if (!inner) return inner;
  if (info.was_compressed) {
    meter_.charge(CostKind::decompress, info.wire_body_size);
  }
  return inner;
}

Result<Bytes> CloudServer::decompress(const Bytes& payload) {
  meter_.charge(CostKind::decompress, payload.size());
  return lz::decompress(payload);
}

Result<std::vector<proto::SyncRecord>> CloudServer::unpack_bundle(
    const proto::SyncRecord& record) {
  if (!record.compressed) return proto::decode_bundle(record.payload);
  Result<Bytes> plain = decompress(record.payload);
  if (!plain) return plain.status();
  return proto::decode_bundle(*plain);
}

/// One intake position of a batch.  An item owns exactly the outputs the
/// server emits for it — ack, forwards, arrivals, rejections, conflict and
/// latency accounting — so settling items in intake order reproduces the
/// arrival-order output streams, whatever order the units were applied in.
struct CloudServer::PumpItem {
  enum class Kind { emit, single, group };
  Kind kind = Kind::emit;
  std::uint32_t client = 0;
  proto::OpKind op = proto::OpKind::write;
  /// False only for frames that never reached intake (undecodable frames,
  /// stream violations): acked without an apply span or latency sample.
  bool applied = false;
  proto::SyncRecord record;                      ///< Kind::single
  std::vector<proto::SyncRecord> group_records;  ///< Kind::group
  /// Carries the trace context of the record it answers (for a group: the
  /// closing txn_last record).
  proto::Ack ack;
  std::uint64_t pre_units = 0;    ///< intake charges (decompress)
  std::uint64_t apply_units = 0;  ///< shard-meter charges of the apply
  std::vector<proto::SyncRecord> forwards;
  std::vector<std::string> arrivals;
  std::vector<Rejection> rejections;
  std::uint64_t conflicts = 0;
};

std::size_t CloudServer::pump() {
  std::vector<PumpItem> items;
  std::size_t processed = 0;
  const auto flush = [&] {
    apply_batch(items);
    for (PumpItem& item : items) send_ack(item.client, settle(item));
    items.clear();
  };
  const auto reject = [&](std::uint32_t client_id, proto::Ack ack) {
    PumpItem& item = items.emplace_back();
    item.client = client_id;
    item.ack = ack;
  };
  const auto corrupt = [&](std::uint32_t client_id,
                           const proto::SyncRecord* record) {
    proto::Ack ack;
    if (record != nullptr) {
      ack.sequence = record->sequence;
      ack.trace_id = record->trace_id;
    }
    ack.result = Errc::corruption;
    reject(client_id, ack);
  };

  for (auto& [client_id, transport] : clients_) {
    while (auto frame = transport->server_poll()) {
      meter_.charge(CostKind::net_frame, frame->size());
      meter_.charge(CostKind::encrypt, frame->size());  // TLS decrypt
      Result<Bytes> inner = unwire(std::move(*frame));
      if (!inner) {
        corrupt(client_id, nullptr);
        continue;
      }
      Result<proto::SyncRecord> record = proto::decode_record(*inner);
      if (wire_ != nullptr) wire_->recycle(std::move(*inner));
      if (!record) {
        corrupt(client_id, nullptr);
        continue;
      }
      if (record->kind == proto::OpKind::recon_query) {
        // A pure read answered with a recon frame, never an ack.  It must
        // observe every earlier arrival applied, so it cuts the batch.
        ++processed;
        flush();
        answer_recon(client_id, *record);
        continue;
      }
      if (record->kind == proto::OpKind::stream_open ||
          record->kind == proto::OpKind::stream_chunk ||
          record->kind == proto::OpKind::stream_commit) {
        // Staging touches only streams_, never applied state, so it needs
        // no batch cut.  Only a commit's synthesized full_file record is
        // applied (one applied record per streamed file, like the
        // non-streamed upload), at its arrival position.
        ++processed;
        StreamOutcome outcome = handle_stream(client_id, std::move(*record));
        if (outcome.error) reject(client_id, *outcome.error);
        if (outcome.record) {
          ++processed;
          intake(client_id, std::move(*outcome.record), items);
        }
        continue;
      }
      if (record->kind == proto::OpKind::record_bundle) {
        Result<std::vector<proto::SyncRecord>> members = unpack_bundle(*record);
        if (!members) {
          corrupt(client_id, &*record);
          continue;
        }
        for (proto::SyncRecord& member : *members) {
          ++processed;
          intake(client_id, std::move(member), items);
        }
        continue;
      }
      ++processed;
      intake(client_id, std::move(*record), items);
    }
  }
  flush();
  update_store_gauges();
  return processed;
}

proto::Ack CloudServer::apply_record(std::uint32_t from_client,
                                     const proto::SyncRecord& record) {
  std::vector<PumpItem> items;
  intake(from_client, record, items);
  apply_batch(items);
  return settle(items.front());
}

void CloudServer::intake(std::uint32_t client_id, proto::SyncRecord record,
                         std::vector<PumpItem>& items) {
  ++records_applied_;
  obs::inc(applied_counter_);
  PumpItem& item = items.emplace_back();
  item.client = client_id;
  item.op = record.kind;
  item.applied = true;
  item.ack.sequence = record.sequence;
  item.ack.trace_id = record.trace_id;
  const std::uint64_t units_before = meter_.units();
  if (record.kind == proto::OpKind::record_bundle) {
    // Bundles are unpacked by pump(); one reaching intake directly (or
    // nested in another bundle) is a protocol violation.
    item.ack.result = Errc::corruption;
    return;
  }
  if (record.compressed) {
    Result<Bytes> plain = decompress(record.payload);
    item.pre_units = meter_.units() - units_before;
    if (!plain) {
      item.ack.result = Errc::corruption;
      return;
    }
    record.payload = std::move(*plain);
    record.compressed = false;
  }
  if (record.txn_group == 0) {
    item.kind = PumpItem::Kind::single;
    item.record = std::move(record);
    return;
  }
  const GroupKey key{client_id, record.txn_group};
  const bool last = record.txn_last;
  std::vector<proto::SyncRecord>& group = groups_[key];
  group.push_back(std::move(record));
  if (!last) {
    obs::inc(txn_buffered_);
    item.ack.result = Errc::ok;  // buffered; final verdict with the group
    return;
  }
  ++txn_groups_applied_;
  obs::inc(txn_groups_counter_);
  item.kind = PumpItem::Kind::group;
  item.group_records = std::move(group);
  groups_.erase(key);
}

void CloudServer::apply_batch(std::vector<PumpItem>& items) {
  // ---- Partition into independent units by touched-path sets.  The
  // closure of paths one record can read or write is {path, path2,
  // conflict_name(path, from_client)}; a transactional group is the union
  // over its records (it applies atomically, so it is one unit).
  std::vector<int> dsu;
  auto find = [&](int x) {
    while (dsu[static_cast<std::size_t>(x)] != x) {
      dsu[static_cast<std::size_t>(x)] =
          dsu[static_cast<std::size_t>(dsu[static_cast<std::size_t>(x)])];
      x = dsu[static_cast<std::size_t>(x)];
    }
    return x;
  };
  auto unite = [&](int a, int b) {
    a = find(a);
    b = find(b);
    if (a != b) dsu[static_cast<std::size_t>(b)] = a;
  };
  std::map<std::string, int, std::less<>> path_ids;
  auto touch = [&](const std::string& path) {
    const auto [it, inserted] =
        path_ids.try_emplace(path, static_cast<int>(dsu.size()));
    if (inserted) dsu.push_back(it->second);
    return it->second;
  };
  std::vector<int> item_root(items.size(), -1);
  for (std::size_t i = 0; i < items.size(); ++i) {
    const PumpItem& item = items[i];
    if (item.kind == PumpItem::Kind::emit) continue;
    int root = -1;
    auto touch_record = [&](const proto::SyncRecord& record) {
      for (const std::string& path :
           {record.path, record.path2,
            conflict_name(record.path, item.client)}) {
        if (path.empty()) continue;
        const int id = touch(path);
        if (root == -1) {
          root = id;
        } else {
          unite(root, id);
        }
      }
    };
    if (item.kind == PumpItem::Kind::single) {
      touch_record(item.record);
    } else {
      for (const proto::SyncRecord& record : item.group_records) {
        touch_record(record);
      }
    }
    item_root[i] = root;
  }

  struct Unit {
    std::vector<std::size_t> item_indices;  ///< ascending = arrival order
    std::vector<std::string> paths;
  };
  std::map<int, std::size_t> root_to_unit;
  std::vector<Unit> units;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (item_root[i] < 0) continue;
    const int root = find(item_root[i]);
    const auto [it, inserted] = root_to_unit.try_emplace(root, units.size());
    if (inserted) units.emplace_back();
    units[it->second].item_indices.push_back(i);
  }
  if (units.empty()) return;
  for (const auto& [path, id] : path_ids) {
    const auto it = root_to_unit.find(find(id));
    if (it != root_to_unit.end()) units[it->second].paths.push_back(path);
  }

  // ---- Extract each unit's shard of the server state.  Units touch
  // disjoint path sets, so the extraction fully isolates them.
  struct Shard {
    EntryMap files;
    EntryMap tombstones;
    std::set<std::string, std::less<>> dirs;
    CostMeter meter;
    explicit Shard(const CostProfile& profile) : meter(profile) {}
  };
  std::vector<Shard> shards;
  shards.reserve(units.size());
  for (const Unit& unit : units) {
    Shard& shard = shards.emplace_back(meter_.profile());
    for (const std::string& path : unit.paths) {
      if (auto node = files_.extract(path)) shard.files.insert(std::move(node));
      if (auto node = tombstones_.extract(path)) {
        shard.tombstones.insert(std::move(node));
      }
      if (dirs_.erase(path) > 0) shard.dirs.insert(path);
    }
  }

  // ---- Apply the units on the pool (inline on one lane).  Items within a
  // unit run sequentially in arrival order; the BlockStore is internally
  // locked and its refcount operations commute, so history puts from
  // different units interleave safely.
  pool_->parallel_for(units.size(), 1, [&](std::size_t begin,
                                           std::size_t end) {
    for (std::size_t ui = begin; ui < end; ++ui) {
      Shard& shard = shards[ui];
      for (const std::size_t idx : units[ui].item_indices) {
        PumpItem& item = items[idx];
        ApplyCtx ctx{shard.files, shard.tombstones, shard.dirs, shard.meter};
        const std::uint64_t units_before = shard.meter.units();
        if (item.kind == PumpItem::Kind::single) {
          item.ack = apply_one(item.client, item.record, shard.files,
                               nullptr, nullptr, ctx);
          if (item.ack.result == Errc::ok) {
            item.forwards.push_back(item.record);
          }
        } else {
          const std::vector<proto::Ack> acks = apply_group(
              item.client, item.group_records, ctx, item.forwards);
          item.ack = acks.empty() ? proto::Ack{} : acks.back();
        }
        item.apply_units = shard.meter.units() - units_before;
        item.conflicts = ctx.conflicts;
        item.rejections = std::move(ctx.rejections);
        item.arrivals = std::move(ctx.arrivals);
      }
    }
  });

  // ---- Commit: merge shard state back.  settle() emits each item's
  // outputs afterwards, in arrival order.
  for (Shard& shard : shards) {
    meter_.merge(shard.meter);
    files_.merge(shard.files);
    tombstones_.merge(shard.tombstones);
    dirs_.merge(shard.dirs);
  }
}

proto::Ack CloudServer::settle(PumpItem& item) {
  if (!item.applied) return item.ack;
  obs::Span span(tracer_, tn_.apply, kind_cat(item.op));
  const std::uint64_t trace_id = item.ack.trace_id;
  if (trace_id != 0 && tracer_ != nullptr) tracer_->flow_end(trace_id);
  if (item.kind == PumpItem::Kind::group) {
    obs::Span group_span(tracer_, tn_.apply_group);
  }
  conflicts_seen_ += item.conflicts;
  if (item.conflicts > 0) obs::inc(conflict_counter_, item.conflicts);
  for (Rejection& rejection : item.rejections) {
    rejections_.push_back(std::move(rejection));
  }
  for (const std::string& path : item.arrivals) record_arrival(path);
  const std::uint64_t forward_before = meter_.units();
  for (const proto::SyncRecord& record : item.forwards) {
    forward(item.client, record);
  }
  // Modeled apply latency: the cost-model units this record consumed,
  // converted at 10 ms-per-tick — deterministic in virtual time.
  const std::uint64_t apply_us =
      (item.pre_units + item.apply_units + meter_.units() - forward_before) *
      10'000 / meter_.profile().units_per_tick;
  if (apply_latency_us_ != nullptr) apply_latency_us_->observe(apply_us);
  if (stages_ != nullptr) stages_->record(obs::Stage::apply, apply_us);
  if (trace_id != 0 && tracer_ != nullptr) {
    tracer_->flow_start(proto::ack_flow_id(trace_id));
  }
  return item.ack;
}

std::vector<proto::Ack> CloudServer::apply_group(
    std::uint32_t from_client, const std::vector<proto::SyncRecord>& group,
    ApplyCtx& ctx, std::vector<proto::SyncRecord>& forwards) {
  // Transactional apply (§III-E): stage every record against a scratch
  // copy of the touched entries; commit only if all succeed.  On any
  // conflict the whole group becomes conflicted.
  EntryMap snapshot;
  for (const proto::SyncRecord& record : group) {
    for (const std::string* path : {&record.path, &record.path2}) {
      if (path->empty() || snapshot.contains(*path)) continue;
      const auto it = ctx.files.find(*path);
      if (it != ctx.files.end()) snapshot.emplace(*path, it->second);
    }
  }

  EntryMap staged = ctx.files;
  std::vector<proto::Ack> acks;
  bool conflicted = false;
  VersionSet group_versions;
  for (const proto::SyncRecord& record : group) {
    proto::Ack ack = apply_one(from_client, record, staged, &snapshot,
                               &group_versions, ctx);
    if (ack.result == Errc::conflict) conflicted = true;
    group_versions.insert(
        {record.new_version.client_id, record.new_version.counter});
    acks.push_back(std::move(ack));
  }

  if (!conflicted) {
    ctx.files = std::move(staged);
    for (const proto::SyncRecord& record : group) {
      if (ctx.files.contains(record.path)) {
        ctx.arrivals.push_back(record.path);
      }
      forwards.push_back(record);
    }
    return acks;
  }

  // Conflict: the whole group is labeled conflicted (§III-E) and the main
  // files stay untouched.  apply_one already materialized conflict copies
  // into the staged map while processing the group; harvest just those.
  ++ctx.conflicts;
  for (proto::Ack& ack : acks) ack.result = Errc::conflict;
  const std::string marker = ".conflict-" + std::to_string(from_client);
  for (auto& [path, entry] : staged) {
    if (path.find(marker) == std::string::npos) continue;
    if (ctx.files.contains(path)) continue;  // pre-existing conflict copy
    ctx.meter.charge(CostKind::byte_copy, entry.content.size());
    ctx.meter.charge(CostKind::disk_write, entry.content.size());
    ctx.files[path] = std::move(entry);
  }
  return acks;
}

proto::Ack CloudServer::apply_one(std::uint32_t from_client,
                                  const proto::SyncRecord& record,
                                  EntryMap& files, const EntryMap* snapshot,
                                  const VersionSet* group_versions,
                                  ApplyCtx& ctx) {
  proto::Ack ack;
  ack.sequence = record.sequence;
  ack.trace_id = record.trace_id;
  ack.result = Errc::ok;

  const bool staged = snapshot != nullptr;

  switch (record.kind) {
    case proto::OpKind::record_bundle:
    case proto::OpKind::recon_query:
    case proto::OpKind::stream_open:
    case proto::OpKind::stream_chunk:
    case proto::OpKind::stream_commit:
      // Framing kinds: pump() unpacks bundles, answers queries and stages
      // streams (only a commit's synthesized full_file is applied).  One
      // reaching the apply layer bypassed framing — reject it.
      ack.result = Errc::corruption;
      break;

    case proto::OpKind::mkdir:
      ctx.dirs.insert(record.path);
      break;

    case proto::OpKind::rmdir:
      ctx.dirs.erase(std::string(record.path));
      break;

    case proto::OpKind::create: {
      const auto it = files.find(record.path);
      if (it != files.end()) {
        // Re-creation over an existing entry: preserve the old content in
        // history (the client may delta against it).
        push_history(it->second);
        it->second.content.clear();
        it->second.version = record.new_version;
      } else {
        FileEntry entry;
        entry.version = record.new_version;
        // Revive history from a tombstone (delete-then-recreate pattern).
        // The tombstone's history handles are shared, not re-stored.
        if (const auto tomb = ctx.tombstones.find(record.path);
            tomb != ctx.tombstones.end()) {
          entry.history = tomb->second.history;
          entry.history.push_front(
              make_version(tomb->second.version, tomb->second.content));
        }
        files.emplace(record.path, std::move(entry));
      }
      break;
    }

    case proto::OpKind::unlink: {
      const auto it = files.find(record.path);
      if (it == files.end()) {
        ack.result = Errc::not_found;
        break;
      }
      ctx.tombstones[record.path] = std::move(it->second);
      files.erase(it);
      break;
    }

    case proto::OpKind::rename: {
      const auto src = files.find(record.path);
      if (src == files.end()) {
        ack.result = Errc::not_found;
        break;
      }
      FileEntry moved = std::move(src->second);
      files.erase(src);
      const auto dst = files.find(record.path2);
      if (dst != files.end()) {
        // POSIX rename-over-existing: the replaced content stays reachable
        // in the new entry's history for delta bases and conflict copies.
        moved.history.push_front(
            make_version(dst->second.version, dst->second.content));
        for (const FileVersion& v : dst->second.history) {
          moved.history.push_back(v);
        }
        while (moved.history.size() > config_.history_depth) {
          moved.history.pop_back();
        }
        files.erase(dst);
      }
      moved.version = record.new_version;
      files.emplace(record.path2, std::move(moved));
      break;
    }

    case proto::OpKind::link: {
      const auto src = files.find(record.path);
      if (src == files.end()) {
        ack.result = Errc::not_found;
        break;
      }
      FileEntry entry;
      entry.content = src->second.content;
      entry.version = record.new_version;
      ctx.meter.charge(CostKind::byte_copy, entry.content.size());
      files[record.path2] = std::move(entry);
      break;
    }

    case proto::OpKind::truncate: {
      const auto it = files.find(record.path);
      if (it == files.end()) {
        ack.result = Errc::not_found;
        break;
      }
      FileEntry& entry = it->second;
      if (entry.version != record.base_version && !staged) {
        ++ctx.conflicts;
        ack.result = Errc::conflict;
        break;
      }
      push_history(entry);
      entry.content.resize(record.size, 0);
      entry.version = record.new_version;
      if (!staged) ctx.arrivals.push_back(record.path);
      break;
    }

    case proto::OpKind::write: {
      Result<std::vector<proto::Segment>> segments =
          proto::decode_segments(record.payload);
      if (!segments) {
        ack.result = Errc::corruption;
        break;
      }
      auto it = files.find(record.path);
      if (it == files.end()) {
        // Writes may arrive for files created in the same batch; create
        // implicitly only when the base version is null (fresh file).
        if (!record.base_version.is_null()) {
          ack.result = Errc::not_found;
          break;
        }
        it = files.emplace(record.path, FileEntry{}).first;
      }
      FileEntry& entry = it->second;
      if (entry.version != record.base_version) {
        // First write wins: the arriving increment conflicts.  Apply it to
        // its proper base to materialize the conflict version (§III-C).
        bool from_history = false;
        Bytes scratch;
        const Bytes* base =
            resolve_base(record.path, record.base_version, files, snapshot,
                         ctx.tombstones, from_history, scratch);
        ++ctx.conflicts;
        ack.result = Errc::conflict;
        if (base != nullptr) {
          Bytes content = *base;
          for (const proto::Segment& segment : *segments) {
            const std::uint64_t end = segment.offset + segment.data.size();
            if (end > content.size()) content.resize(end, 0);
            std::copy(segment.data.begin(), segment.data.end(),
                      content.begin() +
                          static_cast<std::ptrdiff_t>(segment.offset));
          }
          const std::string name = conflict_name(record.path, from_client);
          FileEntry& conflict = files[name];
          conflict.content = std::move(content);
          conflict.version = record.new_version;
          ack.conflict_path = name;
        }
        break;
      }
      push_history(entry);
      std::uint64_t written = 0;
      for (const proto::Segment& segment : *segments) {
        const std::uint64_t end = segment.offset + segment.data.size();
        if (end > entry.content.size()) entry.content.resize(end, 0);
        std::copy(segment.data.begin(), segment.data.end(),
                  entry.content.begin() +
                      static_cast<std::ptrdiff_t>(segment.offset));
        written += segment.data.size();
      }
      ctx.meter.charge(CostKind::byte_copy, written);
      ctx.meter.charge(CostKind::disk_write, written);
      entry.version = record.new_version;
      if (!staged) ctx.arrivals.push_back(record.path);
      break;
    }

    case proto::OpKind::file_delta: {
      Result<rsyncx::Delta> delta = rsyncx::decode_delta(record.payload);
      if (!delta) {
        ack.result = Errc::corruption;
        break;
      }
      const std::string& ref =
          record.path2.empty() ? record.path : record.path2;
      bool from_history = false;
      Bytes scratch;
      const Bytes* base = nullptr;
      if (record.base_deleted) {
        // Delete-then-recreate: the base lives in the tombstones and using
        // it is the expected path, not a conflict.
        if (const auto tomb = ctx.tombstones.find(ref);
            tomb != ctx.tombstones.end()) {
          if (tomb->second.version == record.base_version) {
            base = &tomb->second.content;
          } else {
            for (const FileVersion& v : tomb->second.history) {
              if (v.version == record.base_version) {
                base = version_bytes(v, scratch);
                break;
              }
            }
          }
        }
      } else {
        base = resolve_base(ref, record.base_version, files, snapshot,
                            ctx.tombstones, from_history, scratch);
      }
      if (base == nullptr) {
        if (obs::Logger::global().enabled(obs::LogLevel::debug)) {
          const auto t = ctx.tombstones.find(ref);
          const auto f = files.find(ref);
          DCFS_LOG_DEBUG(
              "server", "delta base unresolved", {"path", record.path},
              {"ref", ref}, {"base_version", proto::to_string(record.base_version)},
              {"base_deleted", record.base_deleted},
              {"tombstone", t == ctx.tombstones.end()
                                ? std::string("none")
                                : proto::to_string(t->second.version)},
              {"current", f == files.end()
                              ? std::string("none")
                              : proto::to_string(f->second.version)});
        }
        ++ctx.conflicts;
        ack.result = Errc::conflict;
        break;
      }
      Result<Bytes> rebuilt = rsyncx::apply_delta(*base, *delta);
      if (!rebuilt) {
        DCFS_LOG_DEBUG("server", "delta apply corrupt", {"path", record.path},
                       {"ref", ref},
                       {"base_version", proto::to_string(record.base_version)},
                       {"delta_base_size", delta->base_size},
                       {"actual_base_size", base->size()},
                       {"status", rebuilt.status().to_string()});
        ack.result = Errc::corruption;
        break;
      }
      ctx.meter.charge(CostKind::byte_copy, rebuilt->size());
      ctx.meter.charge(CostKind::disk_write, rebuilt->size());
      if (from_history && group_versions != nullptr &&
          group_versions->contains(
              {record.base_version.client_id, record.base_version.counter})) {
        // The base was displaced by an operation of this very group (a
        // backindex span can engulf unrelated interleaved updates): the
        // lineage is consistent, not conflicting.
        from_history = false;
      }
      if (from_history) {
        DCFS_LOG_DEBUG("server", "delta base from history",
                       {"path", record.path}, {"ref", ref},
                       {"base_version", proto::to_string(record.base_version)});
        // The base was superseded by another lineage: conflict copy.
        ++ctx.conflicts;
        ack.result = Errc::conflict;
        const std::string name = conflict_name(record.path, from_client);
        FileEntry& conflict = files[name];
        conflict.content = std::move(*rebuilt);
        conflict.version = record.new_version;
        ack.conflict_path = name;
        break;
      }
      FileEntry& entry = files[record.path];
      push_history(entry);
      entry.content = std::move(*rebuilt);
      entry.version = record.new_version;
      if (!staged) ctx.arrivals.push_back(record.path);
      break;
    }

    case proto::OpKind::full_file: {
      FileEntry& entry = files[record.path];
      push_history(entry);
      entry.content = record.payload;
      entry.version = record.new_version;
      ctx.meter.charge(CostKind::byte_copy, entry.content.size());
      ctx.meter.charge(CostKind::disk_write, entry.content.size());
      if (!staged) ctx.arrivals.push_back(record.path);
      break;
    }
  }
  if (ack.result != Errc::ok) {
    ctx.rejections.push_back({record.kind, record.path, record.path2,
                              ack.result, record.base_version});
  }
  return ack;
}

const Bytes* CloudServer::resolve_base(std::string_view ref,
                                       const proto::VersionId& version,
                                       const EntryMap& files,
                                       const EntryMap* snapshot,
                                       const EntryMap& tombstones,
                                       bool& from_history,
                                       Bytes& scratch) const {
  from_history = false;

  if (const auto it = files.find(ref); it != files.end()) {
    if (it->second.version == version) return &it->second.content;
  }
  if (snapshot != nullptr) {
    if (const auto it = snapshot->find(ref); it != snapshot->end()) {
      if (it->second.version == version) return &it->second.content;
      for (const FileVersion& v : it->second.history) {
        if (v.version == version) {
          from_history = true;
          return version_bytes(v, scratch);
        }
      }
    }
  }
  if (const auto it = files.find(ref); it != files.end()) {
    for (const FileVersion& v : it->second.history) {
      if (v.version == version) {
        from_history = true;
        return version_bytes(v, scratch);
      }
    }
  }
  if (const auto it = tombstones.find(ref); it != tombstones.end()) {
    if (it->second.version == version) {
      from_history = true;
      return &it->second.content;
    }
    for (const FileVersion& v : it->second.history) {
      if (v.version == version) {
        from_history = true;
        return version_bytes(v, scratch);
      }
    }
  }
  return nullptr;
}

CloudServer::FileVersion CloudServer::make_version(
    const proto::VersionId& version, const Bytes& content) {
  FileVersion v;
  v.version = version;
  if (!content.empty()) v.blocks = store_.put_shared(content);
  return v;
}

const Bytes* CloudServer::version_bytes(const FileVersion& v,
                                        Bytes& scratch) const {
  if (!v.blocks) {
    scratch.clear();
    return &scratch;
  }
  Result<Bytes> content = store_.get(*v.blocks);
  if (!content) return nullptr;  // lost chunk: treat the version as gone
  scratch = std::move(*content);
  return &scratch;
}

void CloudServer::push_history(FileEntry& entry) {
  if (entry.content.empty() && entry.version.is_null()) return;
  entry.history.push_front(make_version(entry.version, entry.content));
  while (entry.history.size() > config_.history_depth) {
    entry.history.pop_back();
  }
}

void CloudServer::record_arrival(const std::string& path) {
  if (arrived_.insert(path).second) arrival_order_.push_back(path);
}

void CloudServer::answer_recon(std::uint32_t client_id,
                               const proto::SyncRecord& record) {
  obs::Span span(tracer_, tn_.recon);
  if (record.trace_id != 0 && tracer_ != nullptr) {
    tracer_->flow_end(record.trace_id);
  }
  ++recon_queries_;
  obs::inc(recon_counter_);

  proto::ReconResponse response;
  response.trace_id = record.trace_id;

  ByteSpan payload{record.payload};
  Bytes plain;
  if (record.compressed) {
    Result<Bytes> decompressed = decompress(record.payload);
    if (!decompressed) {
      response.result = Errc::corruption;
      send_recon(client_id, response);
      return;
    }
    plain = std::move(*decompressed);
    payload = ByteSpan{plain};
  }
  const Result<proto::ReconRequest> request =
      proto::decode_recon_request(payload);
  if (!request) {
    response.result = Errc::corruption;
    send_recon(client_id, response);
    return;
  }
  response.session = request->session;
  response.round = request->round;

  // Resolve the base the client negotiates against.  Round 0 (null base
  // version) names the path's current state — live entry or tombstone;
  // later rounds pin the exact version round 0 answered with, so a
  // concurrent update (or unlink) between rounds cannot shear the
  // negotiation: the pinned version is still in the entry's history.
  // Current content is inline; history versions are block-backed (a null
  // handle is an empty version).
  const Bytes* current = nullptr;
  const BlockHandle* blocks = nullptr;
  const auto locate = [&](const EntryMap& map, bool deleted) {
    const auto it = map.find(record.path);
    if (it == map.end()) return false;
    const FileEntry& entry = it->second;
    if (record.base_version.is_null() ||
        entry.version == record.base_version) {
      current = &entry.content;
      response.base = entry.version;
      response.base_deleted = deleted;
      response.base_size = entry.content.size();
      return true;
    }
    for (const FileVersion& version : entry.history) {
      if (!(version.version == record.base_version)) continue;
      blocks = version.blocks.get();
      response.base_size = blocks != nullptr ? blocks->size : 0;
      response.base = version.version;
      response.base_deleted = deleted;
      return true;
    }
    return false;
  };
  if (!locate(files_, /*deleted=*/false) &&
      !locate(tombstones_, /*deleted=*/true)) {
    // Fresh path (initial upload) or the pinned version aged out of
    // history: the client falls back to a full-content upload.
    response.result = Errc::not_found;
    send_recon(client_id, response);
    return;
  }

  // Streams the clamped base region into `sink`, chunk by chunk for
  // block-backed versions — a narrow region of a huge version never
  // materializes the whole object.
  const auto stream_region = [&](std::uint64_t offset, std::uint64_t length,
                                 const std::function<void(ByteSpan)>& sink) {
    if (blocks != nullptr) {
      return store_.visit_range(*blocks, offset, length, sink).is_ok();
    }
    const std::uint64_t size = current != nullptr ? current->size() : 0;
    if (offset >= size || length == 0) return true;
    sink(ByteSpan{current->data() + offset,
                  std::min<std::uint64_t>(length, size - offset)});
    return true;
  };

  std::vector<rsyncx::recon::Region> regions = request->regions;
  if (regions.empty()) regions.push_back({0, response.base_size});

  bool ok = true;
  for (const rsyncx::recon::Region& raw : regions) {
    const std::uint64_t offset = std::min(raw.offset, response.base_size);
    const std::uint64_t length =
        std::min(raw.length, response.base_size - offset);
    if (request->want == proto::ReconRequest::Want::shingles) {
      rsyncx::recon::ShingleScanner scanner(
          offset,
          {static_cast<std::size_t>(request->minimum),
           static_cast<std::size_t>(request->average),
           static_cast<std::size_t>(request->maximum)},
          &meter_);
      ok = stream_region(offset, length,
                         [&](ByteSpan data) { scanner.feed(data); });
      if (!ok) break;
      std::vector<rsyncx::recon::Shingle> shingles = scanner.finish();
      response.shingles.insert(response.shingles.end(), shingles.begin(),
                               shingles.end());
    } else {
      rsyncx::recon::SignatureScanner scanner(request->block_size, &meter_);
      ok = stream_region(offset, length,
                         [&](ByteSpan data) { scanner.feed(data); });
      if (!ok) break;
      response.signatures.push_back({{offset, length}, scanner.finish()});
    }
  }
  if (!ok) {
    // A missing store chunk is a refcount bug; surface it like any other
    // damaged read so the client falls back instead of wedging.
    response.result = Errc::corruption;
    response.shingles.clear();
    response.signatures.clear();
  }
  send_recon(client_id, response);
}

void CloudServer::send_recon(std::uint32_t client_id,
                             const proto::ReconResponse& response) {
  const auto it = clients_.find(client_id);
  if (it == clients_.end()) return;
  // The client's round-trip flow edge: the query's flow ended above, the
  // answer starts the ack-tagged edge the client finishes.
  if (response.trace_id != 0 && tracer_ != nullptr) {
    tracer_->flow_start(proto::ack_flow_id(response.trace_id));
  }
  Bytes frame = wire_ != nullptr
                    ? wire_->buffer(64 + response.shingles.size() * 24)
                    : Bytes{};
  frame.push_back(3);  // server-to-client tag: recon answer
  proto::encode_into(response, frame);
  if (wire_ != nullptr) {
    wire::EncodedFrame encoded = wire_->encode(std::move(frame));
    if (encoded.attempted) {
      meter_.charge(CostKind::compress, encoded.raw_size);
    }
    meter_.charge(CostKind::net_frame, encoded.wire.size());
    it->second->server_send(std::move(encoded.wire),
                            proto::MessageType::recon);
    return;
  }
  meter_.charge(CostKind::net_frame, frame.size());
  it->second->server_send(std::move(frame), proto::MessageType::recon);
}

CloudServer::StreamOutcome CloudServer::handle_stream(
    std::uint32_t client_id, proto::SyncRecord record) {
  StreamOutcome out;
  const auto violation = [&] {
    proto::Ack ack;
    ack.sequence = record.sequence;
    ack.trace_id = record.trace_id;
    ack.result = Errc::corruption;
    out.error = ack;
  };
  const std::pair<std::uint32_t, std::uint64_t> key{client_id,
                                                    record.sequence};
  switch (record.kind) {
    case proto::OpKind::stream_open: {
      if (streams_.contains(key)) {
        // Duplicate open: the stream is unrecoverable — drop the stage so
        // stray chunks fail fast instead of splicing into the wrong file.
        streams_.erase(key);
        violation();
        return out;
      }
      StreamStage stage;
      stage.window = record.offset;
      stage.open = std::move(record);
      streams_.emplace(key, std::move(stage));
      ++streams_opened_;
      return out;
    }

    case proto::OpKind::stream_chunk: {
      const auto it = streams_.find(key);
      if (it == streams_.end()) {
        violation();
        return out;
      }
      StreamStage& stage = it->second;
      // Chunks are strictly ordered: ordinal (`size`) and byte offset must
      // both line up, and the total may never overrun the opened size.
      if (record.size != stage.chunks ||
          record.offset != stage.data.size() ||
          stage.data.size() + record.payload.size() > stage.open.size) {
        streams_.erase(it);
        violation();
        return out;
      }
      meter_.charge(CostKind::byte_copy, record.payload.size());
      append(stage.data, record.payload);
      ++stage.chunks;
      ++stream_chunks_;
      // Credit-based backpressure: return window as chunks are consumed,
      // batched to half a window so credits don't outnumber chunks.
      stage.uncredited += record.payload.size();
      if (stage.uncredited >= std::max<std::uint64_t>(stage.window / 2, 1)) {
        send_credit(client_id, key.second, stage.uncredited);
        stage.uncredited = 0;
      }
      return out;
    }

    case proto::OpKind::stream_commit: {
      const auto it = streams_.find(key);
      if (it == streams_.end()) {
        violation();
        return out;
      }
      StreamStage stage = std::move(it->second);
      streams_.erase(it);
      if (stage.data.size() != record.size ||
          stage.open.path != record.path) {
        violation();
        return out;
      }
      // Synthesize the full_file record the non-streamed upload would have
      // shipped: the commit carries all metadata, the stage the content.
      proto::SyncRecord full = std::move(record);
      full.kind = proto::OpKind::full_file;
      full.offset = 0;
      full.payload = std::move(stage.data);
      out.record = std::move(full);
      return out;
    }

    default:
      violation();  // non-stream kind routed here: framing bug
      return out;
  }
}

void CloudServer::send_credit(std::uint32_t client_id, std::uint64_t stream_id,
                              std::uint64_t bytes) {
  const auto it = clients_.find(client_id);
  if (it == clients_.end()) return;
  proto::StreamCredit credit;
  credit.stream_id = stream_id;
  credit.bytes = bytes;
  Bytes frame = wire_ != nullptr ? wire_->buffer(24) : Bytes{};
  frame.push_back(4);  // server-to-client tag: stream credit
  proto::encode_into(credit, frame);
  if (wire_ != nullptr) {
    wire::EncodedFrame encoded = wire_->encode(std::move(frame));
    if (encoded.attempted) {
      meter_.charge(CostKind::compress, encoded.raw_size);
    }
    meter_.charge(CostKind::net_frame, encoded.wire.size());
    it->second->server_send(std::move(encoded.wire),
                            proto::MessageType::stream);
    return;
  }
  meter_.charge(CostKind::net_frame, frame.size());
  it->second->server_send(std::move(frame), proto::MessageType::stream);
}

void CloudServer::send_ack(std::uint32_t client_id, const proto::Ack& ack) {
  const auto it = clients_.find(client_id);
  if (it == clients_.end()) return;
  Bytes frame = wire_ != nullptr ? wire_->buffer(64) : Bytes{};
  frame.push_back(1);  // server-to-client tag: ack
  proto::encode_into(ack, frame);
  if (wire_ != nullptr) {
    // Acks sit under the codec's size floor, so they ship raw — the wire
    // layer only adds its 1-byte header (and byte-exact accounting).
    wire::EncodedFrame encoded = wire_->encode(std::move(frame));
    if (encoded.attempted) {
      meter_.charge(CostKind::compress, encoded.raw_size);
    }
    meter_.charge(CostKind::net_frame, encoded.wire.size());
    it->second->server_send(std::move(encoded.wire), proto::MessageType::ack);
    return;
  }
  meter_.charge(CostKind::net_frame, frame.size());
  it->second->server_send(std::move(frame), proto::MessageType::ack);
}

void CloudServer::forward(std::uint32_t from_client,
                          const proto::SyncRecord& record) {
  if (clients_.size() < 2) return;
  // One start per forwarded record; every receiving peer finishes it (flow
  // fan-out).  Callers hold a server.apply span, which the edge binds to.
  if (record.trace_id != 0 && tracer_ != nullptr) {
    tracer_->flow_start(proto::forward_flow_id(record.trace_id));
  }
  // §III-D: "besides storing the data it also forwards the data to other
  // shared clients" — no recomputation, the same record goes out.
  Bytes frame = wire_ != nullptr
                    ? wire_->buffer(record.payload.size() + 80)
                    : Bytes{};
  frame.push_back(2);  // server-to-client tag: forwarded record
  proto::encode_into(record, frame);
  if (wire_ != nullptr) {
    // Compress once; every peer receives a copy of the same wire bytes.
    wire::EncodedFrame encoded = wire_->encode(std::move(frame));
    if (encoded.attempted) {
      meter_.charge(CostKind::compress, encoded.raw_size);
    }
    for (auto& [client_id, transport] : clients_) {
      if (client_id == from_client) continue;
      meter_.charge(CostKind::net_frame, encoded.wire.size());
      transport->server_send(encoded.wire, proto::MessageType::forward);
    }
    wire_->recycle(std::move(encoded.wire));
    return;
  }
  for (auto& [client_id, transport] : clients_) {
    if (client_id == from_client) continue;
    meter_.charge(CostKind::net_frame, frame.size());
    transport->server_send(frame, proto::MessageType::forward);
  }
}

std::string CloudServer::conflict_name(std::string_view path,
                                       std::uint32_t client) const {
  return std::string(path) + ".conflict-" + std::to_string(client);
}

std::size_t CloudServer::gc_tombstones() {
  const std::size_t collected = tombstones_.size();
  tombstones_.clear();  // version handles release their chunks on the way out
  update_store_gauges();
  return collected;
}

Result<Bytes> CloudServer::fetch(std::string_view path) const {
  const auto it = files_.find(path);
  if (it == files_.end()) return Errc::not_found;
  return it->second.content;
}

std::vector<proto::VersionId> CloudServer::history(
    std::string_view path) const {
  std::vector<proto::VersionId> out;
  const auto it = files_.find(path);
  if (it == files_.end()) return out;
  out.push_back(it->second.version);
  for (const FileVersion& v : it->second.history) out.push_back(v.version);
  return out;
}

Result<Bytes> CloudServer::fetch_version(
    std::string_view path, const proto::VersionId& version) const {
  const auto it = files_.find(path);
  if (it == files_.end()) return Errc::not_found;
  if (it->second.version == version) return it->second.content;
  for (const FileVersion& v : it->second.history) {
    if (v.version != version) continue;
    if (!v.blocks) return Bytes{};
    return store_.get(*v.blocks);
  }
  return Errc::not_found;
}

std::optional<proto::VersionId> CloudServer::version(
    std::string_view path) const {
  const auto it = files_.find(path);
  if (it == files_.end()) return std::nullopt;
  return it->second.version;
}

std::vector<std::string> CloudServer::paths() const {
  std::vector<std::string> out;
  out.reserve(files_.size());
  for (const auto& [path, entry] : files_) out.push_back(path);
  return out;
}

std::vector<std::string> CloudServer::conflict_paths() const {
  std::vector<std::string> out;
  for (const auto& [path, entry] : files_) {
    if (path.find(".conflict-") != std::string::npos) out.push_back(path);
  }
  return out;
}

bool CloudServer::has_dir(std::string_view path) const {
  return dirs_.contains(std::string(path));
}

}  // namespace dcfs
