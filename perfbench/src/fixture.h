#ifndef NOUS_PERFBENCH_FIXTURE_H_
#define NOUS_PERFBENCH_FIXTURE_H_

// Seeded inputs: the drone world, its curated KB, the article corpus
// and the Figure-5 query mix. The program under test receives only
// these generated inputs; the seed never reaches it.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/nous.h"
#include "corpus/world_model.h"
#include "kb/curated_kb.h"
#include "qa/query.h"

namespace perfbench {

/// World shape. `scale` multiplies the default drone world's company,
/// people and product counts; `num_events` stays below the world's
/// distinct-event capacity so generation never spins on duplicates.
struct WorldShape {
  size_t scale = 1;
  size_t num_events = 6000;
};

struct Fixture {
  nous::WorldModel world;
  std::unique_ptr<nous::CuratedKb> kb;
  std::vector<nous::Article> articles;
};

/// Builds the world, KB and corpus for `seed` (inside a
/// corpus.generate span). Same seed, same inputs.
std::unique_ptr<Fixture> MakeFixture(uint64_t seed, const WorldShape& shape);

/// The only options any workload sets: the pipeline pool size and,
/// when `durable_dir` is non-empty, the durability dir with
/// FsyncPolicy::kAlways.
nous::NousOptions MakeOptions(size_t pool_threads,
                              const std::string& durable_dir);

/// Figure-5 query mix over `snap`: entity 50%, relationship 15%,
/// search 10%, trending 15%, pattern 10%. Entities are drawn Zipf
/// (s = 1) over vertices ranked by degree, so repeated keys exercise
/// the versioned query cache.
std::vector<nous::Query> MakeQueryMix(const nous::KgSnapshot& snap,
                                      uint64_t seed, size_t count);

/// FNV-1a over the snapshot graph's binary image: equal digests mean
/// equal KGs, so runs of one seed can be compared.
uint64_t GraphDigest(const nous::KgSnapshot& snap);

/// KiB of `snap`'s graph chunks no longer shared with the live graph:
/// what a reader pinning that snapshot costs once ingest moved on.
double PrivateKiB(const nous::KgSnapshot& snap);

/// The live graph's binary image, read under the pipeline's reader
/// lock (what leader/follower bit-identity compares).
std::string LiveGraphBytes(nous::Nous& nous);

/// Splits `articles[begin, end)` into consecutive batches of `size`.
std::vector<std::vector<nous::Article>> Batches(
    const std::vector<nous::Article>& articles, size_t begin, size_t end,
    size_t size);

/// SplitMix64 of (seed, stream): independent sub-seeds per input.
uint64_t SubSeed(uint64_t seed, uint64_t stream);

}  // namespace perfbench

#endif  // NOUS_PERFBENCH_FIXTURE_H_
