#pragma once
// One run's inputs, and the one list of what the traffic engines can run.
//
// A Cell names everything a run of the traffic subsystem depends on: the
// scenario, the backend, the seed, the scale, an injection-batch
// override, and — through its ShardedOptions base — the engine (shards 0
// is the classic single node, shards >= 1 the § III-C2 mesh), the mesh's
// host threads and population/message overrides, and the observability
// hooks.
//
// Validate, then construct: check() returns "" or the reason the cell is
// unsupported, before anything is built, and run() picks the engine. The
// rules check() applies are of two kinds:
//   * what an engine cannot run — unsupported(), which Engine::run and
//     run_sharded also call, and throw on;
//   * inputs an engine would silently gate off or ignore — mesh-only
//     overrides on a classic cell, channel loss/dup on a device backend,
//     loss/dup with a replayed trace, recording a replay. The library runs
//     these (minus the ignored input); a CLI rejects them through check().

#include <cstdint>
#include <string>

#include "obs/hooks.hpp"
#include "squeue/factory.hpp"
#include "traffic/scenario.hpp"
#include "traffic/sharded_engine.hpp"

namespace vl::traffic {

/// `shards` is 0 on a new cell: the classic engine.
struct Cell : ShardedOptions {
  Cell(ScenarioSpec spec, squeue::Backend backend, std::uint64_t seed,
       int scale = 1, const obs::RunHooks* hooks = nullptr);

  ScenarioSpec spec;
  squeue::Backend backend;
  std::uint64_t seed;
  int scale;
  /// Every tenant's injection batch (TenantSpec::batch); 0 keeps the
  /// spec's per-tenant batches.
  std::uint32_t batch = 0;

  /// Empty when run() executes every input of this cell; otherwise the
  /// first rule it breaks.
  std::string check() const;
};

/// Run `cell` on the engine its `shards` selects. A classic cell fills only
/// the result's `engine` (shards = 0). Does not call check(): inputs an
/// engine gates off are gated off; what an engine cannot run throws
/// std::invalid_argument, as does an invalid spec.
ShardedResult run(const Cell& cell);

/// Empty when an engine can run `spec` on `backend` — the classic engine
/// when `mesh` is null, else the mesh on mesh->shards shards with its
/// population/message overrides; otherwise the reason it cannot. The one
/// rule list Engine::run and run_sharded throw on and Cell::check() returns.
std::string unsupported(const ScenarioSpec& spec, squeue::Backend backend,
                        const ShardedOptions* mesh);

}  // namespace vl::traffic
