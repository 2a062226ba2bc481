// ReshardCoordinator: elastic online resharding of a ShardRouter fleet,
// N shards -> M shards, while the fleet keeps serving.
//
// The move runs in five phases:
//
//   1. Plan: decide the next partition map {generation + 1, M} and open a
//      *staging* fleet — M full shard slices under the new generation's
//      shard dirs — that is never scheduled and never persists the live
//      PARTMAP record.
//   2. Fence: drain the donors, then hold the router's append gate
//      exclusive just long enough to verify nothing is pending, pin every
//      donor's committed epoch, and arm dual-journaling — from here every
//      accepted append lands in the donor's log AND the staging fleet's
//      logs (routed by the new map). The pinned epochs plus the journal
//      cover the full history with no gap. A delta that the donor acked
//      but the mirror failed to land is counted, and the move aborts
//      before the cutover commit point rather than cut over without it.
//      Ordering: the mirror runs synchronously before each ack, so
//      caller-serialized appends journal in order; only appends racing on
//      the same key may reach the two logs in different orders.
//   3. Transfer: cut the pinned structure + state into content-addressed
//      chunks (ContentChunkStore under `<root>/<name>.reshard-chunks/`,
//      bucketed by key hash and sorted so equal slices chunk identically).
//      A chunk whose content the store already holds — a previous crashed
//      attempt, or an identical slice — is reused, not re-copied. The
//      destinations assemble their slices from the store and bootstrap.
//   4. Catch-up: the staging fleet drains the dual-journaled deltas that
//      arrived while the transfer ran.
//   5. Cutover: append gate exclusive again, staging drains the tail, a
//      durable RESHARD marker (the new map's encoding) commits the
//      decision, the PARTMAP record is rewritten, and the router adopts
//      the staging topology in one seqlock-bracketed pointer swap. The
//      marker is then retired. Donor slices stay alive (retired) so
//      snapshots pinned before the flip keep serving the old map with
//      zero failed reads.
//
// Crash story: the RESHARD marker is the commit point. A crash anywhere
// before it recovers (reset=false reopen) to exactly the old map — the
// PARTMAP record is untouched and stale staging dirs are inert. A crash
// after it rolls forward: ShardRouter::RecoverReshard installs the
// marker's map as the PARTMAP and the reopened fleet is the new
// generation, bootstrapped from its own durably committed epoch 0+. An
// in-process I/O failure between the marker write and the topology swap
// revokes the decision (marker retired, PARTMAP restored to the old map)
// so the old generation stands consistently; if revocation itself fails,
// the router is poisoned — appends and lookups refused — until the
// roll-forward reopen, so no acked write can be contradicted by recovery.
//
// Metrics (serving.<name>.reshard.*): chunks_total, chunks_reused,
// bytes_moved, dual_journal_deltas, cutover_ms. Health: every donor and
// destination reports "resharding" on "reshard.<name>.{donor,dest}<i>"
// for the duration of the move. Trace spans: reshard.run wraps
// reshard.plan, reshard.transfer (with per-destination child spans) and
// reshard.cutover.
#ifndef I2MR_SERVING_RESHARD_H_
#define I2MR_SERVING_RESHARD_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "serving/shard_router.h"

namespace i2mr {

struct ReshardOptions {
  /// Target shard count M (must be >= 1 and different from the current).
  int new_num_shards = 0;

  /// Split threshold for one content chunk; a hash bucket whose sorted
  /// records exceed this is cut at record boundaries.
  uint64_t chunk_max_bytes = 256ull << 10;

  /// Key-hash buckets per (destination, kind) stream. More buckets =
  /// finer reuse granularity under churn, more chunks to index.
  int buckets_per_stream = 64;

  /// Test hook simulating coordinator death inside the move. Stages:
  /// "plan" (nothing changed yet), "dual_journal" (journaling armed,
  /// transfer not begun), "transfer" (chunks durable, staging fleet not
  /// bootstrapped), "flip" (cutover fenced, RESHARD marker not yet written
  /// — recovery keeps the old map), "flip_marker" (marker durable,
  /// topology not swapped — recovery rolls forward to the new map; the
  /// router is poisoned in-process exactly like a mid-flip barrier
  /// crash). The same points fire from the fault-injection layer as
  /// "reshard/<stage>".
  std::function<bool(const std::string& stage)> crash_hook;
};

struct ReshardStats {
  uint64_t old_generation = 0;
  uint64_t new_generation = 0;
  int old_shards = 0;
  int new_shards = 0;
  uint64_t chunks_total = 0;
  uint64_t chunks_reused = 0;
  uint64_t bytes_moved = 0;         // chunk bytes actually written
  uint64_t dual_journal_deltas = 0; // deltas mirrored mid-move
  double transfer_ms = 0;
  double bootstrap_ms = 0;
  double catchup_ms = 0;
  double cutover_ms = 0;  // appends-blocked window of phase 5
  double wall_ms = 0;
};

class ReshardCoordinator {
 public:
  /// The router must stay alive for the coordinator's lifetime. The move
  /// itself is Run(); one coordinator runs one move.
  ReshardCoordinator(ShardRouter* router, ReshardOptions options);

  /// Execute the full reshard. On success the router serves the new
  /// generation and the returned stats describe the move. On failure the
  /// router still serves the old map (or — after the "flip_marker" point,
  /// or when a post-marker failure's decision could not be revoked — is
  /// poisoned pending the roll-forward reopen) — never a mix.
  StatusOr<ReshardStats> Run();

 private:
  bool Crashed(const std::string& stage) const;
  Status DrainDonors();

  ShardRouter* const router_;
  ReshardOptions options_;
};

}  // namespace i2mr

#endif  // I2MR_SERVING_RESHARD_H_
