#include "fleet/merge.hpp"

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <unordered_map>
#include <vector>

#include "corpus/serialize.hpp"
#include "fleet/fleet.hpp"
#include "fleet/lease.hpp"
#include "support/rng.hpp"

namespace dce::fleet {

namespace {

void
setError(corpus::StoreError *error, corpus::StoreStatus status,
         std::string message)
{
    if (error) {
        error->status = status;
        error->message = std::move(message);
    }
}

/** One worker store's share of the merge: the records of the chunks
 * its done leases cover, as stored bytes and decoded, plus their
 * programs. */
struct StoreShare {
    std::vector<corpus::RawRecord> raw;
    std::vector<core::ProgramRecord> decoded;
    std::unordered_map<std::string, std::string> programs;
    corpus::StoreError error;
};

void
loadShare(const std::string &fleet_dir, const std::string &store_name,
          const std::vector<char> &chunks, uint64_t slots,
          StoreShare &share)
{
    support::MetricsRegistry scratch;
    corpus::OpenOptions open_options;
    open_options.createIfMissing = false;
    open_options.metrics = &scratch;
    std::unique_ptr<corpus::CorpusStore> store = corpus::CorpusStore::open(
        workerStoreDir(fleet_dir, store_name), &share.error, open_options);
    if (!store)
        return;
    share.raw = store->loadRawRecords(
        [&](uint64_t chunk) {
            return chunk < chunks.size() && chunks[chunk];
        },
        &share.error);
    if (!share.error.ok())
        return;
    std::erase_if(share.raw, [&](const corpus::RawRecord &record) {
        return record.slot >= slots;
    });
    share.decoded.reserve(share.raw.size());
    for (const corpus::RawRecord &record : share.raw) {
        std::optional<core::ProgramRecord> decoded =
            corpus::deserializeRecord(record.payload);
        if (!decoded) {
            setError(&share.error, corpus::StoreStatus::Corrupt,
                     store_name + " record slot " +
                         std::to_string(record.slot) +
                         " does not deserialize");
            return;
        }
        share.decoded.push_back(std::move(*decoded));
        if (share.programs.count(record.programHash))
            continue;
        std::optional<std::string> text =
            store->getProgram(record.programHash, &share.error);
        if (!text)
            return;
        share.programs.emplace(record.programHash, std::move(*text));
    }
}

} // namespace

std::optional<corpus::CheckpointedCampaign>
mergeFleet(const std::string &fleet_dir, corpus::StoreError *error)
{
    std::optional<FleetConfig> config =
        readFleetConfig(fleet_dir, error);
    if (!config)
        return std::nullopt;
    const corpus::CampaignPlan &plan = config->plan;
    const std::string plan_json = corpus::serializePlan(plan);
    const uint64_t num_chunks = config->numChunks();

    LeaseTable table(fleet_dir);
    std::optional<std::vector<Lease>> leases = table.list(error);
    if (!leases)
        return std::nullopt;
    for (const Lease &lease : *leases) {
        if (lease.state != LeaseState::Done) {
            setError(error, corpus::StoreStatus::IoError,
                     "fleet incomplete: lease " +
                         std::to_string(lease.index) + " is " +
                         leaseStateName(lease.state));
            return std::nullopt;
        }
    }

    // Pull each slot's record (and program text) from the store whose
    // done lease covers its chunk — the authoritative copy even when
    // a crashed worker's store holds a stale duplicate. One thread per
    // store; a record's stored bytes are copied, not re-encoded.
    std::map<std::string, std::vector<char>> chunks_by_store;
    for (const Lease &lease : *leases) {
        std::vector<char> &chunks = chunks_by_store[lease.store];
        chunks.resize(num_chunks, 0);
        for (uint64_t chunk = lease.beginChunk;
             chunk < lease.endChunk && chunk < num_chunks; ++chunk)
            chunks[chunk] = 1;
    }
    std::vector<StoreShare> shares(chunks_by_store.size());
    std::vector<std::jthread> loaders;
    size_t share = 0;
    for (const auto &[store_name, chunks] : chunks_by_store)
        loaders.emplace_back(loadShare, std::cref(fleet_dir),
                             std::cref(store_name), std::cref(chunks),
                             plan.count, std::ref(shares[share++]));
    // Meanwhile create the merged store (a few fsyncs), replacing any
    // previous merge.
    std::string merged_dir = mergedStoreDir(fleet_dir);
    std::error_code ec;
    std::filesystem::remove_all(merged_dir, ec);
    support::MetricsRegistry merged_scratch;
    corpus::OpenOptions merged_options;
    merged_options.metrics = &merged_scratch;
    std::unique_ptr<corpus::CorpusStore> merged =
        corpus::CorpusStore::open(merged_dir, error, merged_options);
    for (std::jthread &loader : loaders)
        loader.join();
    if (!merged)
        return std::nullopt;
    std::vector<core::ProgramRecord> records(plan.count);
    std::vector<const corpus::RawRecord *> raw(plan.count, nullptr);
    std::vector<const std::string *> programs(plan.count, nullptr);
    for (StoreShare &share : shares) {
        if (!share.error.ok()) {
            setError(error, share.error.status, share.error.message);
            return std::nullopt;
        }
        for (size_t i = 0; i < share.raw.size(); ++i) {
            const corpus::RawRecord &record = share.raw[i];
            records[record.slot] = std::move(share.decoded[i]);
            raw[record.slot] = &record;
            programs[record.slot] =
                &share.programs.at(record.programHash);
        }
    }
    for (uint64_t slot = 0; slot < plan.count; ++slot) {
        if (!raw[slot]) {
            setError(error, corpus::StoreStatus::Corrupt,
                     "merge found no record for slot " +
                         std::to_string(slot));
            return std::nullopt;
        }
    }

    // Counter deltas sum associatively, so the totals are independent
    // of how chunks were partitioned into leases.
    auto owned = std::make_shared<support::MetricsRegistry>();
    for (const Lease &lease : *leases) {
        for (const auto &[key, delta] : lease.counters) {
            if (delta)
                owned->counter(key).add(delta);
        }
    }

    std::vector<LeaseFinding> findings;
    for (const Lease &lease : *leases)
        findings.insert(findings.end(), lease.findings.begin(),
                        lease.findings.end());
    std::sort(findings.begin(), findings.end(),
              [](const LeaseFinding &a, const LeaseFinding &b) {
                  return a.chunk != b.chunk ? a.chunk < b.chunk
                                            : a.slot < b.slot;
              });
    std::map<uint64_t, std::vector<corpus::StoredFinding>>
        findings_by_chunk;
    bool extract = plan.missedByBuild < plan.builds.size() &&
                   plan.referenceBuild < plan.builds.size();
    for (const LeaseFinding &entry : findings) {
        corpus::StoredFinding stored;
        stored.chunk = entry.chunk;
        stored.slot = entry.slot;
        stored.finding.seed = entry.seed;
        stored.finding.marker = entry.marker;
        if (extract) {
            stored.finding.missedBy = plan.builds[plan.missedByBuild];
            stored.finding.reference =
                plan.builds[plan.referenceBuild];
        }
        findings_by_chunk[entry.chunk].push_back(std::move(stored));
    }

    // The final-checkpoint progress gauges a single run would have
    // set just before writing its last checkpoint.
    owned->counter("campaign.progress", "completed_chunks")
        .add(num_chunks);
    owned->counter("campaign.progress", "watermark").add(num_chunks);
    owned->counter("campaign.progress", "seeds_committed")
        .add(plan.count);
    owned->counter("campaign.progress", "findings")
        .add(findings.size());

    // RNG stream state at the watermark: replay the full stream —
    // cheap (count draws) and exactly what a complete run records.
    uint64_t rng_state = 0;
    if (plan.randomSeeds) {
        Rng rng(plan.streamSeed);
        for (uint64_t draw = 0; draw < plan.count; ++draw)
            rng.next();
        rng_state = rng.state();
    }

    // Fill the merged store: programs + records in slot order, then
    // the complete-campaign checkpoint, byte-for-byte what a live run
    // writes.
    for (uint64_t slot = 0; slot < plan.count; ++slot) {
        merged->putProgram(raw[slot]->programHash, *programs[slot]);
        merged->putRawRecord(*raw[slot]);
    }
    std::set<uint64_t> completed;
    for (uint64_t chunk = 0; chunk < num_chunks; ++chunk)
        completed.insert(chunk);
    std::string checkpoint_json = corpus::encodeCheckpointJson(
        plan_json, completed, num_chunks, rng_state, *owned,
        findings_by_chunk);
    if (!merged->writeCheckpoint(checkpoint_json, error))
        return std::nullopt;
    merged.reset(); // release the writer lock for readers

    corpus::CheckpointedCampaign result;
    result.campaign.builds = plan.builds;
    result.campaign.programs = std::move(records);
    result.campaign.metrics.seedsDone = plan.count;
    result.resumed = false;
    result.completed = true;
    result.chunksLoaded = num_chunks;
    result.chunksRun = 0;
    for (const auto &[chunk, list] : findings_by_chunk) {
        for (const corpus::StoredFinding &stored : list) {
            if (result.findings.size() >= plan.maxFindings)
                break;
            result.findings.push_back(stored.finding);
        }
    }
    result.ownedMetrics = owned;
    result.metrics = owned.get();
    return result;
}

} // namespace dce::fleet
