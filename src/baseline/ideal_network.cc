#include "baseline/ideal_network.h"

#include <algorithm>
#include <span>
#include <unordered_map>

#include "common/random.h"
#include "profile/score_kernel.h"

namespace p3q {
namespace {

/// Ideal-list order: score descending, ties by ascending id.
bool RankedBefore(const std::pair<UserId, std::uint64_t>& a,
                  const std::pair<UserId, std::uint64_t>& b) {
  if (a.second != b.second) return a.second > b.second;
  return a.first < b.first;
}

/// Shared kernel: per-user top-s similarity lists from per-user action sets.
IdealNetworks ComputeFromActions(
    const std::vector<std::span<const ActionKey>>& actions, int network_size,
    SimilarityMetric metric) {
  const std::size_t num_users = actions.size();

  // Inverted index: action -> users having it, as flat postings. Each
  // distinct action gets a dense id and every user's actions are resolved
  // to ids once, so the scoring pass below does no hash lookups. Postings
  // end up sorted by user id because users are appended in id order.
  std::vector<std::size_t> user_begin(num_users + 1, 0);
  for (std::uint32_t u = 0; u < num_users; ++u) {
    user_begin[u + 1] = user_begin[u] + actions[u].size();
  }
  std::vector<std::uint32_t> action_ids;  // per user action, concatenated
  action_ids.reserve(user_begin[num_users]);
  std::vector<std::size_t> posting_begin;  // per action id, then the end
  {
    std::unordered_map<ActionKey, std::uint32_t> id_of;
    for (std::uint32_t u = 0; u < num_users; ++u) {
      for (ActionKey a : actions[u]) {
        const auto [it, fresh] = id_of.try_emplace(
            a, static_cast<std::uint32_t>(posting_begin.size()));
        if (fresh) posting_begin.push_back(0);
        ++posting_begin[it->second];
        action_ids.push_back(it->second);
      }
    }
  }
  std::size_t total = 0;
  for (std::size_t& begin : posting_begin) {
    const std::size_t size = begin;
    begin = total;
    total += size;
  }
  posting_begin.push_back(total);
  std::vector<std::uint32_t> postings(total);
  {
    std::vector<std::size_t> fill(posting_begin.begin(),
                                  posting_begin.end() - 1);
    for (std::uint32_t u = 0; u < num_users; ++u) {
      for (std::size_t k = user_begin[u]; k < user_begin[u + 1]; ++k) {
        postings[fill[action_ids[k]]++] = u;
      }
    }
  }

  const std::size_t s = static_cast<std::size_t>(network_size);
  IdealNetworks ideal(num_users);
  std::vector<std::uint32_t> counts(num_users, 0);
  std::vector<std::uint32_t> touched;
  std::vector<std::pair<UserId, std::uint64_t>> candidates;
  for (std::uint32_t u = 0; u < num_users; ++u) {
    touched.clear();
    for (std::size_t k = user_begin[u]; k < user_begin[u + 1]; ++k) {
      const std::uint32_t id = action_ids[k];
      for (std::size_t p = posting_begin[id]; p < posting_begin[id + 1]; ++p) {
        const std::uint32_t v = postings[p];
        if (v == u) continue;
        if (counts[v]++ == 0) touched.push_back(v);
      }
    }
    candidates.clear();
    for (std::uint32_t v : touched) {
      const std::uint64_t score = SimilarityScore(
          metric, counts[v], actions[u].size(), actions[v].size());
      if (score > 0) candidates.emplace_back(v, score);
      counts[v] = 0;
    }
    // A total order (ids are unique), so the top s come out exactly as a
    // full sort would order them.
    const auto end = candidates.begin() + static_cast<std::ptrdiff_t>(
                                              std::min(candidates.size(), s));
    std::partial_sort(candidates.begin(), end, candidates.end(), RankedBefore);
    ideal[u].assign(candidates.begin(), end);
  }
  return ideal;
}

}  // namespace

IdealNetworks ComputeIdealNetworks(const Dataset& dataset, int network_size,
                                   SimilarityMetric metric) {
  std::vector<std::span<const ActionKey>> actions;
  actions.reserve(dataset.NumUsers());
  for (UserId u = 0; u < static_cast<UserId>(dataset.NumUsers()); ++u) {
    actions.push_back(dataset.ActionsOf(u));
  }
  return ComputeFromActions(actions, network_size, metric);
}

IdealNetworks ComputeIdealNetworks(const ProfileStore& store, int network_size,
                                   SimilarityMetric metric) {
  std::vector<std::span<const ActionKey>> actions;
  actions.reserve(store.NumUsers());
  for (UserId u = 0; u < static_cast<UserId>(store.NumUsers()); ++u) {
    actions.push_back(store.Get(u)->actions());
  }
  return ComputeFromActions(actions, network_size, metric);
}

IdealNetworks ComputeIdealNetworksSampled(const ProfileStore& store,
                                          int network_size,
                                          std::size_t sample_size,
                                          std::uint64_t seed,
                                          SimilarityMetric metric) {
  const std::size_t num_users = store.NumUsers();
  if (sample_size >= num_users) {
    return ComputeIdealNetworks(store, network_size, metric);
  }

  // Deterministic sample of query users, independent of the system's rng
  // streams.
  std::vector<UserId> all(num_users);
  for (std::size_t u = 0; u < num_users; ++u) all[u] = static_cast<UserId>(u);
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x1d8e4e27c47d124fULL);
  std::vector<UserId> sample = rng.SampleWithoutReplacement(all, sample_size);
  std::sort(sample.begin(), sample.end());
  all.clear();
  all.shrink_to_fit();

  // Score each sampled user against every other user with the batched
  // block-bitmap kernel — O(sample * users) pair scores, no inverted index
  // (whose postings map is what blows up at million-user scale).
  IdealNetworks ideal(num_users);
  std::vector<const Profile*> others;
  others.reserve(num_users - 1);
  std::vector<PairSimilarity> sims;
  for (UserId u : sample) {
    others.clear();
    for (UserId v = 0; v < static_cast<UserId>(num_users); ++v) {
      if (v != u) others.push_back(store.Get(v).get());
    }
    sims.assign(others.size(), PairSimilarity{});
    KernelPairSimilarityBatch(*store.Get(u), others.data(), others.size(),
                              sims.data());
    auto& list = ideal[u];
    const std::size_t len_u = store.Get(u)->Length();
    for (std::size_t k = 0; k < others.size(); ++k) {
      const std::uint64_t score = SimilarityScore(
          metric, sims[k].score, len_u, others[k]->Length());
      if (score > 0) list.emplace_back(others[k]->owner(), score);
    }
    std::sort(list.begin(), list.end(), RankedBefore);
    if (list.size() > static_cast<std::size_t>(network_size)) {
      list.resize(static_cast<std::size_t>(network_size));
    }
  }
  return ideal;
}

}  // namespace p3q
