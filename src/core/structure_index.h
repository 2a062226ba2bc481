// StructureIndex: one partition's loop-invariant structure kv-pairs
// <SK, SV>, kept resident in DK order (paper §4.3 structure caching, made
// delta-maintainable). Records are grouped by DK = project(SK) and each
// group is sorted by (SK, SV), so iteration yields exactly the
// (project(SK), SK, SV) order the prime Map merge-joins with the DK-sorted
// state, and the incremental re-map finds a changed DK's records with one
// lookup.
//
// Built once (from the input at Prepare, from structure.dat at reload);
// after that each refresh's structure delta is applied in place: one
// Project and one binary search per delta record and one linear merge per
// touched DK group — no full re-sort, no Project call on untouched records
// and no re-read of the partition file.
#ifndef I2MR_CORE_STRUCTURE_INDEX_H_
#define I2MR_CORE_STRUCTURE_INDEX_H_

#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/kv.h"
#include "common/status.h"
#include "core/projector.h"

namespace i2mr {

class StructureIndex {
 public:
  /// The records of one DK, sorted by (SK, SV); duplicates are adjacent.
  using Group = std::vector<KV>;
  using Groups = std::map<std::string, Group, std::less<>>;

  /// Replace the contents with `records`, in any order (one Project call
  /// per record; already-ordered input, such as a structure file, costs no
  /// sort).
  void Build(std::vector<KV> records, const Projector& projector);

  /// Apply a batch of structure deltas in log order. An insert adds one
  /// copy (duplicates are kept); a delete removes one copy, so
  /// delete-then-insert of a present record keeps it and insert-then-delete
  /// of an absent one leaves it absent. Deleting a record with no copy left
  /// warns and is skipped. Returns true when the contents changed.
  bool Apply(const std::vector<DeltaKV>& batch, const Projector& projector);

  /// The records of `dk`, or nullptr when it has none.
  const Group* Find(std::string_view dk) const;

  const Groups& groups() const { return groups_; }

  /// Write every record, in index order, as a record file.
  Status Write(const std::string& path) const;

 private:
  Groups groups_;
};

}  // namespace i2mr

#endif  // I2MR_CORE_STRUCTURE_INDEX_H_
