// Query workload generation (Section 3.1.1 of the paper).
//
// "Each user processes exactly one query: one item was randomly picked from
// the user's profile, the query of that user was then generated with the
// tags used by that user to annotate this item" — the assumption being that
// the tags a user applied to an item are the tags she would search with.
#ifndef P3Q_DATASET_QUERY_GEN_H_
#define P3Q_DATASET_QUERY_GEN_H_

#include <span>
#include <vector>

#include "common/random.h"
#include "common/types.h"
#include "dataset/dataset.h"

namespace p3q {

/// A top-k query: a querier and her search tags. `source_item` records which
/// profile item generated the query (evaluation bookkeeping only; the
/// protocol never sees it).
struct QuerySpec {
  UserId querier = kInvalidUser;
  std::vector<TagId> tags;  // sorted ascending, unique
  ItemId source_item = kInvalidItem;

  /// The checkpoint field list (sim/checkpoint.h).
  template <typename F, typename... S>
  static void Fields(F&& f, S&... s) {
    f(s.querier...);
    f(s.tags...);
    f(s.source_item...);
  }
};

/// Generates one query for the given user per the paper's method. Returns a
/// query with empty tags when the user's profile is empty.
QuerySpec GenerateQueryForUser(const Dataset& dataset, UserId user, Rng* rng);

/// Same, drawing from a raw sorted action list — the streaming path, where
/// no materialized Dataset exists and the runner reads the user's original
/// actions out of the ProfileStore. Identical rng draws for identical
/// actions, so queries match the Dataset overload byte for byte.
QuerySpec GenerateQueryForUser(std::span<const ActionKey> actions, UserId user,
                               Rng* rng);

/// Generates one query per user (skipping users with empty profiles).
std::vector<QuerySpec> GenerateQueries(const Dataset& dataset, Rng* rng);

}  // namespace p3q

#endif  // P3Q_DATASET_QUERY_GEN_H_
