// Shard-count equivalence for the server's partitioned apply pipeline.
//
// Deterministic multi-client record streams — full files, deltas (fresh and
// stale), creates, unlinks, renames, links, truncates, transactional groups
// (including groups split across pump batches) — are pumped through
// CloudServers configured with 1, 2, 4 and 8 apply shards.  Every observable
// output must match the digests recorded from the record-at-a-time serial
// pump the pipeline replaced: file contents and versions, block-backed
// histories, conflict copies, rejections, arrival order, per-client
// downstream frame sequences (acks and forwards), the CostMeter's per-kind
// breakdown, and block-store accounting.  The serial reference is kept as
// data, so every shard count — one included — is checked against it.
//
// Also checks that record_bundle frames on the wire leave server state and
// downstream traffic identical to the same records sent as plain frames.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "net/transport.h"
#include "proto/messages.h"
#include "rsyncx/delta.h"
#include "server/cloud_server.h"

namespace dcfs {
namespace {

using proto::OpKind;
using proto::SyncRecord;
using proto::VersionId;

constexpr std::uint32_t kClients = 3;
constexpr std::size_t kRounds = 10;

/// One simulated client's view while generating its stream: what it last
/// wrote per path (possibly stale on the server — that's the point).
struct ClientState {
  std::uint32_t id = 0;
  std::uint64_t sequence = 0;
  std::uint64_t version_counter = 0;
  std::uint64_t group_counter = 0;
  std::map<std::string, std::pair<VersionId, Bytes>> shadow;
  /// A group opened in an earlier round, waiting for its closer.
  std::vector<SyncRecord> open_group;
};

Bytes mutate(Rng& rng, const Bytes& base) {
  Bytes out = base;
  if (out.empty()) return rng.bytes(rng.next_in(64, 512));
  for (std::uint64_t flips = rng.next_in(1, 4); flips > 0; --flips) {
    out[rng.next_below(out.size())] ^= static_cast<std::uint8_t>(
        rng.next_in(1, 255));
  }
  if (rng.next_below(2) == 0) {
    const Bytes tail = rng.bytes(rng.next_in(1, 64));
    out.insert(out.end(), tail.begin(), tail.end());
  }
  return out;
}

std::string pool_path(std::uint64_t n) {
  return "/sync/f" + std::to_string(n % 8);
}

/// Generates one record; advances the client's shadow state.
SyncRecord make_record(Rng& rng, ClientState& client) {
  SyncRecord record;
  record.sequence = ++client.sequence;
  const std::string path = pool_path(rng.next_u64());
  const VersionId version{client.id, ++client.version_counter};
  record.new_version = version;
  const auto shadow = client.shadow.find(path);
  const bool known = shadow != client.shadow.end();

  switch (rng.next_below(12)) {
    case 0:
    case 1:
    case 2: {  // full file: fresh, or a near-identical rewrite (dedup food)
      record.kind = OpKind::full_file;
      record.path = path;
      record.payload = known && rng.next_below(2) == 0
                           ? mutate(rng, shadow->second.second)
                           : rng.bytes(rng.next_in(100, 2000));
      client.shadow[path] = {version, record.payload};
      break;
    }
    case 3:
    case 4:
    case 5: {  // delta against the client's (possibly stale) base
      if (!known) {
        record.kind = OpKind::full_file;
        record.path = path;
        record.payload = rng.bytes(rng.next_in(100, 2000));
        client.shadow[path] = {version, record.payload};
        break;
      }
      const Bytes target = mutate(rng, shadow->second.second);
      record.kind = OpKind::file_delta;
      record.path = path;
      record.base_version = shadow->second.first;
      record.payload = rsyncx::encode_delta(
          rsyncx::compute_delta_local(shadow->second.second, target, 4096,
                                      nullptr));
      client.shadow[path] = {version, target};
      break;
    }
    case 6: {  // create (sometimes a revival of an unlinked path)
      record.kind = OpKind::create;
      record.path = path;
      client.shadow[path] = {version, Bytes{}};
      break;
    }
    case 7: {  // unlink
      record.kind = OpKind::unlink;
      record.path = path;
      if (known) {
        record.base_version = shadow->second.first;
        client.shadow.erase(shadow);
      }
      break;
    }
    case 8: {  // rename within the pool
      record.kind = OpKind::rename;
      record.path = path;
      record.path2 = pool_path(rng.next_u64());
      if (record.path2 == record.path) record.path2 += ".renamed";
      if (known) {
        record.base_version = shadow->second.first;
        Bytes content = std::move(shadow->second.second);
        client.shadow.erase(shadow);
        client.shadow[record.path2] = {version, std::move(content)};
      }
      break;
    }
    case 9: {  // hard link
      record.kind = OpKind::link;
      record.path = path;
      record.path2 = pool_path(rng.next_u64());
      if (record.path2 == record.path) record.path2 += ".link";
      if (known) client.shadow[record.path2] = {version, shadow->second.second};
      break;
    }
    case 10: {  // mkdir / rmdir
      record.kind = rng.next_below(3) == 0 ? OpKind::rmdir : OpKind::mkdir;
      record.path = "/sync/d" + std::to_string(rng.next_below(4));
      break;
    }
    default: {  // truncate
      if (!known || shadow->second.second.empty()) {
        record.kind = OpKind::create;
        record.path = path;
        client.shadow[path] = {version, Bytes{}};
        break;
      }
      record.kind = OpKind::truncate;
      record.path = path;
      record.base_version = shadow->second.first;
      record.size = rng.next_below(shadow->second.second.size() + 1);
      shadow->second.second.resize(record.size);
      shadow->second.first = version;
      break;
    }
  }
  return record;
}

/// The records one client sends in one round.  Occasionally wraps a few
/// records into a transactional group, sometimes leaving it open so the
/// closer lands in a later pump batch.
std::vector<SyncRecord> make_round(Rng& rng, ClientState& client) {
  std::vector<SyncRecord> records;
  // Close a group left open last round first (tests cross-batch buffering).
  if (!client.open_group.empty()) {
    for (SyncRecord& member : client.open_group) {
      records.push_back(std::move(member));
    }
    client.open_group.clear();
    records.back().txn_last = true;
  }
  const std::size_t count = rng.next_in(3, 6);
  for (std::size_t i = 0; i < count; ++i) {
    if (rng.next_below(5) == 0) {  // transactional group of 2-3 records
      const std::uint64_t group = ++client.group_counter;
      const std::size_t members = rng.next_in(2, 3);
      std::vector<SyncRecord> grouped;
      for (std::size_t m = 0; m < members; ++m) {
        SyncRecord member = make_record(rng, client);
        member.txn_group = group;
        member.txn_last = false;
        grouped.push_back(std::move(member));
      }
      if (rng.next_below(4) == 0) {  // leave open until the next round
        client.open_group = std::move(grouped);
      } else {
        grouped.back().txn_last = true;
        for (SyncRecord& member : grouped) records.push_back(std::move(member));
      }
    } else {
      records.push_back(make_record(rng, client));
    }
  }
  return records;
}

void dump_bytes(std::ostringstream& out, const Bytes& bytes) {
  out << bytes.size() << ':';
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// Everything the outside world can observe, rendered to strings so a
/// mismatch fails with a comparable diff.
struct Observed {
  std::string state;    ///< files, versions, histories, conflicts, counters
  std::string wire;     ///< per-client downstream frame sequences
  std::string meter;    ///< CostMeter per-kind breakdown + store accounting
  std::size_t processed = 0;
};

Observed observe(const CloudServer& server,
                 const std::vector<std::vector<Bytes>>& downstream,
                 std::size_t processed) {
  std::ostringstream state;
  for (const std::string& path : server.paths()) {
    state << "file " << path << " v="
          << proto::to_string(*server.version(path)) << " ";
    Result<Bytes> content = server.fetch(path);
    dump_bytes(state, content.is_ok() ? *content : Bytes{});
    state << "\n";
    for (const VersionId& version : server.history(path)) {
      Result<Bytes> old_content = server.fetch_version(path, version);
      state << "  hist " << proto::to_string(version) << " ";
      dump_bytes(state, old_content.is_ok() ? *old_content : Bytes{});
      state << "\n";
    }
  }
  for (const std::string& path : server.conflict_paths()) {
    state << "conflict " << path << "\n";
  }
  for (const std::string& path : server.arrival_order()) {
    state << "arrival " << path << "\n";
  }
  for (const CloudServer::Rejection& rejection : server.rejections()) {
    state << "reject " << proto::to_string(rejection.kind) << " "
          << rejection.path << " " << rejection.path2 << " "
          << to_string(rejection.result) << "\n";
  }
  state << "records_applied=" << server.records_applied()
        << " conflicts=" << server.conflicts_seen()
        << " groups=" << server.txn_groups_applied() << "\n";

  std::ostringstream wire;
  for (std::size_t c = 0; c < downstream.size(); ++c) {
    wire << "client " << c + 1 << ": " << downstream[c].size() << " frames\n";
    for (const Bytes& frame : downstream[c]) {
      dump_bytes(wire, frame);
      wire << "\n";
    }
  }

  std::ostringstream meter;
  const CostSnapshot snap = server.meter().snapshot();
  for (std::size_t i = 0; i < kCostKindCount; ++i) {
    meter << to_string(static_cast<CostKind>(i)) << "="
          << snap.units_by_kind[i] << "\n";
  }
  meter << "store unique=" << server.store().unique_bytes()
        << " logical=" << server.store().logical_bytes() << "\n";

  return {state.str(), wire.str(), meter.str(), processed};
}

/// Runs the seeded scenario against a server with `shards` apply lanes.
/// With `bundle`, each round's small records ride one record_bundle frame
/// per client instead of individual frames.
Observed run_scenario(std::uint64_t seed, std::size_t shards,
                      bool bundle = false) {
  ServerConfig config;
  config.apply_shards = shards;
  CloudServer server(CostProfile::pc(), config);

  std::vector<Transport> transports;
  transports.reserve(kClients);
  std::vector<ClientState> clients(kClients);
  for (std::uint32_t c = 0; c < kClients; ++c) {
    transports.emplace_back(NetProfile::pc_wan());
    clients[c].id = c + 1;
  }
  for (std::uint32_t c = 0; c < kClients; ++c) {
    server.attach(c + 1, transports[c]);
  }

  Rng rng(seed);
  std::size_t processed = 0;
  for (std::size_t round = 0; round < kRounds; ++round) {
    for (std::uint32_t c = 0; c < kClients; ++c) {
      const std::vector<SyncRecord> records = make_round(rng, clients[c]);
      if (bundle) {
        SyncRecord frame;
        frame.kind = OpKind::record_bundle;
        frame.sequence = records.front().sequence;
        frame.payload = proto::encode_bundle(records);
        transports[c].client_send(proto::encode(frame));
      } else {
        for (const SyncRecord& record : records) {
          transports[c].client_send(proto::encode(record));
        }
      }
    }
    processed += server.pump();
  }

  std::vector<std::vector<Bytes>> downstream(kClients);
  for (std::uint32_t c = 0; c < kClients; ++c) {
    while (std::optional<Bytes> frame = transports[c].client_poll()) {
      downstream[c].push_back(std::move(*frame));
    }
  }
  return observe(server, downstream, processed);
}

/// FNV-1a over one rendered output stream.
std::uint64_t digest(const std::string& text) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : text) {
    hash ^= static_cast<std::uint8_t>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

/// Outputs of the record-at-a-time serial pump for one seed, recorded
/// before that pump was folded into the partitioned pipeline.
struct SerialReference {
  std::uint64_t seed;
  std::size_t processed;
  std::uint64_t state;
  std::uint64_t wire;
  std::uint64_t meter;
};

constexpr SerialReference kSerialReference[] = {
    {1, 179, 0x0506f68491d5bda5ull, 0xf1139bab428fc904ull,
     0x331f2e1199fe2871ull},
    {7, 178, 0x42de31b9a1368c29ull, 0xe93c0b4b423f771full,
     0x67437ac15fd8e6f4ull},
    {42, 167, 0x7bb33b48f0c17909ull, 0x0115a2d09b23a2bfull,
     0x4f4cd43f898437a2ull},
    {1234, 181, 0xb6b0565d7fd23585ull, 0x0df83e8369cfe67cull,
     0xecbd3bc1818967c1ull},
};

class ServerParallelEquivalence
    : public ::testing::TestWithParam<SerialReference> {};

TEST_P(ServerParallelEquivalence, ShardCountsMatchRecordedSerialOutputs) {
  const SerialReference& expected = GetParam();
  ASSERT_GT(expected.processed, 100u) << "scenario too small to mean anything";
  const Observed one_shard = run_scenario(expected.seed, 1);
  for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
    const Observed observed =
        shards == 1 ? one_shard : run_scenario(expected.seed, shards);
    EXPECT_EQ(observed.processed, expected.processed) << "shards=" << shards;
    EXPECT_EQ(digest(observed.state), expected.state) << "shards=" << shards;
    EXPECT_EQ(digest(observed.wire), expected.wire) << "shards=" << shards;
    EXPECT_EQ(digest(observed.meter), expected.meter) << "shards=" << shards;
    // A readable diff when a shard count drifts from the one-lane run.
    EXPECT_EQ(observed.state, one_shard.state) << "shards=" << shards;
    EXPECT_EQ(observed.wire, one_shard.wire) << "shards=" << shards;
    EXPECT_EQ(observed.meter, one_shard.meter) << "shards=" << shards;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ServerParallelEquivalence,
                         ::testing::ValuesIn(kSerialReference),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param.seed);
                         });

TEST(ServerBundleEquivalence, BundledWireMatchesPlainWire) {
  // Bundling changes upstream framing only: server state and the full
  // downstream frame sequence (per-member acks, forwards) are identical.
  for (const std::uint64_t seed : {3ull, 99ull}) {
    const Observed plain = run_scenario(seed, 1, /*bundle=*/false);
    const Observed bundled = run_scenario(seed, 1, /*bundle=*/true);
    EXPECT_EQ(bundled.processed, plain.processed);
    EXPECT_EQ(bundled.state, plain.state);
    EXPECT_EQ(bundled.wire, plain.wire);
  }
}

TEST(ServerBundleEquivalence, BundledAndShardedMatchesSerialPlain) {
  const Observed plain = run_scenario(5, 1, /*bundle=*/false);
  const Observed combined = run_scenario(5, 4, /*bundle=*/true);
  EXPECT_EQ(combined.processed, plain.processed);
  EXPECT_EQ(combined.state, plain.state);
  EXPECT_EQ(combined.wire, plain.wire);
}

}  // namespace
}  // namespace dcfs
