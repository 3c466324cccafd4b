#include "profile/score_kernel_simd.h"

#include <atomic>
#include <bit>
#include <cctype>
#include <cstdio>
#include <cstdlib>

#include "common/aligned.h"
#include "common/cpu_features.h"
#include "profile/profile.h"
#include "profile/score_kernel.h"
#include "profile/score_kernel_internal.h"

#ifdef P3Q_SCORE_KERNEL_SIMD_X86
#include <immintrin.h>
#endif

namespace p3q {
namespace {

/// The widest lane this host can run.
SimdLane WidestUsableLane() {
  if (SimdLaneUsable(SimdLane::kAvx512)) return SimdLane::kAvx512;
  if (SimdLaneUsable(SimdLane::kAvx2)) return SimdLane::kAvx2;
  return SimdLane::kScalar;
}

std::string ToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

/// The active lane; -1 until the first ActiveSimdLane() resolves P3Q_SIMD.
std::atomic<int> g_active_lane{-1};

}  // namespace

const char* SimdLaneName(SimdLane lane) {
  switch (lane) {
    case SimdLane::kScalar:
      return "scalar";
    case SimdLane::kAvx2:
      return "avx2";
    case SimdLane::kAvx512:
      return "avx512";
  }
  return "unknown";
}

bool SimdLaneCompiled(SimdLane lane) {
#ifdef P3Q_SCORE_KERNEL_SIMD_X86
  return lane == SimdLane::kScalar || lane == SimdLane::kAvx2 ||
         lane == SimdLane::kAvx512;
#else
  return lane == SimdLane::kScalar;
#endif
}

bool SimdLaneUsable(SimdLane lane) {
  if (!SimdLaneCompiled(lane)) return false;
  switch (lane) {
    case SimdLane::kScalar:
      return true;
    case SimdLane::kAvx2:
      return HostCpuFeatures().Avx2Usable();
    case SimdLane::kAvx512:
      return HostCpuFeatures().Avx512Usable();
  }
  return false;
}

std::vector<SimdLane> UsableSimdLanes() {
  std::vector<SimdLane> lanes;
  for (const SimdLane lane :
       {SimdLane::kScalar, SimdLane::kAvx2, SimdLane::kAvx512}) {
    if (SimdLaneUsable(lane)) lanes.push_back(lane);
  }
  return lanes;
}

SimdResolution ResolveSimdLane(std::string_view request) {
  SimdResolution res;
  const std::string value = ToLower(request);
  if (value.empty() || value == "auto") {
    res.lane = WidestUsableLane();
    return res;
  }
  if (value == "off" || value == "scalar" || value == "none") {
    res.lane = SimdLane::kScalar;
    return res;
  }
  if (value == "avx2" || value == "avx512") {
    const SimdLane requested =
        value == "avx2" ? SimdLane::kAvx2 : SimdLane::kAvx512;
    if (SimdLaneUsable(requested)) {
      res.lane = requested;
      return res;
    }
    res.lane = WidestUsableLane();
    if (static_cast<int>(res.lane) > static_cast<int>(requested)) {
      // Never silently widen past an explicit request.
      res.lane = SimdLane::kScalar;
    }
    res.warning = "P3Q_SIMD=" + value + " requested but the " + value +
                  " kernel lane is not usable on this host (" +
                  (SimdLaneCompiled(requested) ? "CPU/OS support missing"
                                               : "not compiled in") +
                  "); falling back to " + SimdLaneName(res.lane);
    return res;
  }
  res.lane = WidestUsableLane();
  res.warning = "unknown P3Q_SIMD value '" + value + "' (expected off|" +
                "scalar|avx2|avx512|auto); using " + SimdLaneName(res.lane);
  return res;
}

SimdLane ActiveSimdLane() {
  const int cached = g_active_lane.load(std::memory_order_relaxed);
  if (cached >= 0) return static_cast<SimdLane>(cached);
  const char* env = std::getenv("P3Q_SIMD");
  const SimdResolution res = ResolveSimdLane(env == nullptr ? "" : env);
  int expected = -1;
  if (g_active_lane.compare_exchange_strong(expected,
                                            static_cast<int>(res.lane),
                                            std::memory_order_relaxed)) {
    // Only the thread that won the resolution race warns, so the message
    // appears once. Racing resolutions are identical (same env, same CPU).
    if (!res.warning.empty()) {
      std::fprintf(stderr, "p3q: %s\n", res.warning.c_str());
    }
  }
  return static_cast<SimdLane>(g_active_lane.load(std::memory_order_relaxed));
}

SimdLane SetSimdLane(SimdLane lane) {
  const SimdLane previous = ActiveSimdLane();
  if (!SimdLaneUsable(lane)) lane = SimdLane::kScalar;
  g_active_lane.store(static_cast<int>(lane), std::memory_order_relaxed);
  return previous;
}

#ifdef P3Q_SCORE_KERNEL_SIMD_X86

// ---------------------------------------------------------------------------
// Block-merge intersection count — all-pairs tile comparison.
//
// Both arrays hold unique ascending block ids, so inside a WxW tile every
// id matches at most one lane of the other side; comparing the a-register
// against W lane rotations of the b-register covers all W*W pairs with W
// vector compares. The tile then advances whichever side holds the smaller
// maximum (both on a tie) — the classic merge step, W elements at a time.
// Discarded elements can never match the surviving side (everything left
// there is larger), so the scalar tail finishes from (i, j) exactly.
// ---------------------------------------------------------------------------

__attribute__((target("avx2"))) std::size_t Avx2IntersectBlocksMerge(
    const std::uint64_t* ab, const std::uint64_t* aw, std::size_t na,
    const std::uint64_t* bb, const std::uint64_t* bw, std::size_t nb) {
  std::size_t count = 0;
  std::size_t i = 0, j = 0;
  while (i + 4 <= na && j + 4 <= nb) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ab + i));
    __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bb + j));
    for (int r = 0; r < 4; ++r) {
      const __m256i eq = _mm256_cmpeq_epi64(va, vb);
      int m = _mm256_movemask_pd(_mm256_castsi256_pd(eq));
      while (m != 0) {
        const int lane = std::countr_zero(static_cast<unsigned>(m));
        m &= m - 1;
        count += static_cast<std::size_t>(
            std::popcount(aw[i + lane] & bw[j + ((lane + r) & 3)]));
      }
      // Rotate b one lane left so round r compares a[L] vs b[(L + r) & 3].
      vb = _mm256_permute4x64_epi64(vb, 0x39);
    }
    const std::uint64_t amax = ab[i + 3];
    const std::uint64_t bmax = bb[j + 3];
    if (amax <= bmax) i += 4;
    if (bmax <= amax) j += 4;
  }
  return count + kernel_detail::IntersectBlocksMergeScalar(
                     ab + i, aw + i, na - i, bb + j, bw + j, nb - j);
}

namespace {

// Unmasked AVX-512 intrinsics whose GCC implementation merges into
// _mm512_undefined_epi32() (shifts, alignr, broadcasts, the 256-bit
// extracts behind _mm512_reduce_add_epi64) are spelled below as their
// zero-masking forms under a full mask, or replaced by a constant: same
// instructions and bits, and no read of an uninitialized merge source for
// the compiler to warn about.
constexpr __mmask8 kAllLanes = 0xff;

/// Per-64-bit-lane popcount without VPOPCNTDQ: the classic in-register
/// nibble LUT (VPSHUFB) summed per qword with VPSADBW — AVX-512BW only, so
/// pre-Ice-Lake AVX-512 parts run it instead of faulting on VPOPCNTQ.
__attribute__((target("avx512f,avx512bw,avx512vl"))) inline __m512i
Popcnt64Nibble(__m512i v) {
  // Popcounts of the nibbles 0..15, one byte each, in every 128-bit lane.
  const __m512i lut = _mm512_set4_epi32(0x04030302, 0x03020201, 0x03020201,
                                        0x02010100);
  const __m512i low = _mm512_set1_epi8(0x0f);
  const __m512i lo = _mm512_and_si512(v, low);
  const __m512i hi =
      _mm512_and_si512(_mm512_maskz_srli_epi64(kAllLanes, v, 4), low);
  const __m512i nibbles = _mm512_add_epi8(_mm512_shuffle_epi8(lut, lo),
                                          _mm512_shuffle_epi8(lut, hi));
  return _mm512_sad_epu8(nibbles, _mm512_setzero_si512());
}

/// The AVX-512 all-pairs merge body, shared between the VPOPCNTDQ and the
/// emulated-popcount builds. The two wrapper functions below differ only in
/// their target attribute and POPCNT64 expression, so the VPOPCNTQ encoding
/// never exists in the fallback path.
#define P3Q_AVX512_MERGE_BODY(POPCNT64)                                     \
  std::size_t count = 0;                                                    \
  __m512i acc = _mm512_setzero_si512();                                     \
  std::size_t i = 0, j = 0;                                                 \
  while (i + 8 <= na && j + 8 <= nb) {                                      \
    const __m512i va = _mm512_loadu_si512(ab + i);                          \
    __m512i vb = _mm512_loadu_si512(bb + j);                                \
    const __m512i wa = _mm512_loadu_si512(aw + i);                          \
    __m512i wb = _mm512_loadu_si512(bw + j);                                \
    for (int r = 0; r < 8; ++r) {                                           \
      const __mmask8 eq = _mm512_cmpeq_epi64_mask(va, vb);                  \
      if (eq != 0) {                                                        \
        const __m512i inter = _mm512_maskz_and_epi64(eq, wa, wb);           \
        acc = _mm512_add_epi64(acc, POPCNT64(inter));                       \
      }                                                                     \
      vb = _mm512_maskz_alignr_epi64(kAllLanes, vb, vb, 1);                 \
      wb = _mm512_maskz_alignr_epi64(kAllLanes, wb, wb, 1);                 \
    }                                                                       \
    const std::uint64_t amax = ab[i + 7];                                   \
    const std::uint64_t bmax = bb[j + 7];                                   \
    if (amax <= bmax) i += 8;                                               \
    if (bmax <= amax) j += 8;                                               \
  }                                                                         \
  const __m256i half =                                                      \
      _mm256_add_epi64(_mm512_maskz_extracti64x4_epi64(kAllLanes, acc, 1),  \
                       _mm512_maskz_extracti64x4_epi64(kAllLanes, acc, 0)); \
  const __m128i quarter = _mm_add_epi64(_mm256_extracti128_si256(half, 1),  \
                                        _mm256_castsi256_si128(half));      \
  count += static_cast<std::size_t>(_mm_cvtsi128_si64(quarter) +            \
                                    _mm_extract_epi64(quarter, 1));         \
  return count + kernel_detail::IntersectBlocksMergeScalar(                 \
                     ab + i, aw + i, na - i, bb + j, bw + j, nb - j)

__attribute__((target("avx512f,avx512bw,avx512vl,avx512vpopcntdq")))
std::size_t
Avx512MergeVpopcnt(const std::uint64_t* ab, const std::uint64_t* aw,
                   std::size_t na, const std::uint64_t* bb,
                   const std::uint64_t* bw, std::size_t nb) {
  P3Q_AVX512_MERGE_BODY(_mm512_popcnt_epi64);
}

__attribute__((target("avx512f,avx512bw,avx512vl"))) std::size_t
Avx512MergeNibble(const std::uint64_t* ab, const std::uint64_t* aw,
                  std::size_t na, const std::uint64_t* bb,
                  const std::uint64_t* bw, std::size_t nb) {
  P3Q_AVX512_MERGE_BODY(Popcnt64Nibble);
}

#undef P3Q_AVX512_MERGE_BODY

}  // namespace

std::size_t Avx512IntersectBlocksMerge(const std::uint64_t* ab,
                                       const std::uint64_t* aw, std::size_t na,
                                       const std::uint64_t* bb,
                                       const std::uint64_t* bw,
                                       std::size_t nb) {
  static const bool use_popcnt = HostCpuFeatures().avx512vpopcntdq;
  return use_popcnt ? Avx512MergeVpopcnt(ab, aw, na, bb, bw, nb)
                    : Avx512MergeNibble(ab, aw, na, bb, bw, nb);
}

// ---------------------------------------------------------------------------
// Batched base-vs-many sweep — two-phase survivor compaction.
//
// The base's item blocks are scattered once per batch into a dense
// [min_block, max_block] table of (word, rank) entries; a candidate block
// then costs one range check + one gather instead of a hash probe.
//
// Phase 1 streams every candidate's block array through the vector lanes —
// range-check, gather, AND, zero-test, 4 (AVX2) or 8 (AVX-512) blocks per
// step — and compress-stores the packed (candidate << 32 | block index) of
// each block whose AND survived into a flat survivor list. No scalar work
// happens inside the sweep, so the branch predictor sees one tight
// loop regardless of where the matches fall.
//
// Phase 2 walks the (much shorter) survivor list and does the exact
// rank-select accumulation. The run merge itself is usually a single
// branchless 8x8 all-pairs compare of the two items' 128-bit tag
// signatures (ScoreIndex::tag_sig_a/b); only unpackable runs fall back to
// the scalar MergeRuns. Splitting the phases keeps the mispredict-prone
// accumulation out of the vector sweep — that separation, plus the
// signature merge, is worth ~2x over accumulating inline.
// ---------------------------------------------------------------------------

namespace {

/// One flattened candidate of the running batch: the raw array pointers
/// phase 2 needs, resolved once so survivor processing never touches the
/// Profile or ScoreIndex objects again.
struct CandRef {
  const std::uint64_t* blocks;
  const std::uint64_t* words;
  const std::uint32_t* rank;
  const std::uint32_t* counts;
  const std::uint32_t* offsets;
  const std::uint64_t* sig_a;
  const ActionKey* actions;
  std::uint32_t nblocks;
};

/// Per-thread batch scratch, reused across batches to keep the sweep
/// allocation-free after warmup. Words of absent blocks stay zero, so their
/// AND can never survive the zero test; rank entries of absent blocks are
/// never read.
struct DenseScratch {
  AlignedVector<std::uint64_t> words;
  AlignedVector<std::uint32_t> rank;
  std::vector<std::uint64_t> survivors;
  std::vector<CandRef> tab;
};

thread_local DenseScratch t_dense;

/// Builds the dense table for `ib` or returns false when the block span is
/// too sparse for it (the portable hash path handles those bases).
bool BuildDenseTable(const ScoreIndex& ib, std::uint64_t* bmin_out,
                     std::uint64_t* span_out) {
  const std::size_t nb = ib.items.size();
  if (nb == 0) return false;
  const std::uint64_t bmin = ib.items.blocks.front();
  const std::uint64_t span = ib.items.blocks.back() - bmin + 1;
  if (span > kMaxDenseSpan || span > kDenseSpanFactor * nb) return false;
  t_dense.words.assign(span, 0);
  t_dense.rank.resize(span);
  for (std::size_t j = 0; j < nb; ++j) {
    const std::size_t r = static_cast<std::size_t>(ib.items.blocks[j] - bmin);
    t_dense.words[r] = ib.items.words[j];
    t_dense.rank[r] = ib.item_rank[j];
  }
  *bmin_out = bmin;
  *span_out = span;
  return true;
}

/// Flattens the batch into t_dense.tab and returns the total candidate
/// block count (the survivor list's capacity bound). Skewed candidates are
/// scored right here through the pair kernel's galloping path — a candidate
/// far larger than the base would pay O(candidate blocks) sweep lanes for
/// nothing — and pre-swapped so the batch-wide final swap restores them.
std::size_t FlattenBatch(const Profile& base, const Profile* const* candidates,
                         std::size_t n, PairSimilarity* out) {
  const ScoreIndex& ib = base.index();
  t_dense.tab.resize(n);
  std::size_t total = 0;
  for (std::size_t c = 0; c < n; ++c) {
    const Profile& cand = *candidates[c];
    const ScoreIndex& ic = cand.index();
    out[c] = PairSimilarity{};
    if (ic.items.size() > ib.items.size() * kGallopSkewRatio) {
      out[c] = KernelPairSimilarity(base, cand);
      std::swap(out[c].a_actions_on_common, out[c].b_actions_on_common);
      t_dense.tab[c].nblocks = 0;
      continue;
    }
    t_dense.tab[c] =
        CandRef{ic.items.blocks.data(),  ic.items.words.data(),
                ic.item_rank.data(),     ic.item_counts.data(),
                ic.item_offsets.data(),  ic.tag_sig_a.data(),
                cand.actions().data(),   static_cast<std::uint32_t>(
                                             ic.items.size())};
    total += ic.items.size();
  }
  return total;
}

/// Lane-compaction shuffles for the AVX2 survivor store: entry m rotates
/// the qword pairs (as epi32 index pairs) so the qwords whose mask bit is
/// set land first, in lane order.
alignas(32) const int kSurvivorCompress[16][8] = {
    {0, 1, 2, 3, 4, 5, 6, 7}, {0, 1, 2, 3, 4, 5, 6, 7},
    {2, 3, 0, 1, 4, 5, 6, 7}, {0, 1, 2, 3, 4, 5, 6, 7},
    {4, 5, 0, 1, 2, 3, 6, 7}, {0, 1, 4, 5, 2, 3, 6, 7},
    {2, 3, 4, 5, 0, 1, 6, 7}, {0, 1, 2, 3, 4, 5, 6, 7},
    {6, 7, 0, 1, 2, 3, 4, 5}, {0, 1, 6, 7, 2, 3, 4, 5},
    {2, 3, 6, 7, 0, 1, 4, 5}, {0, 1, 2, 3, 6, 7, 4, 5},
    {4, 5, 6, 7, 0, 1, 2, 3}, {0, 1, 4, 5, 6, 7, 2, 3},
    {2, 3, 4, 5, 6, 7, 0, 1}, {0, 1, 2, 3, 4, 5, 6, 7},
};

/// Branchless |run_a ∩ run_b| of two packable runs via their tag
/// signatures: compare the a-form against 8 lane rotations of the b-form.
/// Keys of one item differ only in their tag, both runs are duplicate-free,
/// and the pad sentinels (0xffff vs 0xfffe) can never match anything, so
/// the number of equal 16-bit lane pairs is exactly the intersection size.
__attribute__((target("avx2"))) inline std::uint64_t TagSigMerge(
    const std::uint64_t* sa, const std::uint64_t* sb) {
  const __m128i a128 = _mm_load_si128(reinterpret_cast<const __m128i*>(sa));
  const __m128i b128 = _mm_load_si128(reinterpret_cast<const __m128i*>(sb));
  const __m256i aa = _mm256_broadcastsi128_si256(a128);
  // y = [rot0, rot1] of b; alignr by 4 bytes within each 128-bit half
  // advances both copies two rotations, so 4 iterations cover all 8.
  __m256i y = _mm256_set_m128i(_mm_alignr_epi8(b128, b128, 2), b128);
  unsigned hits = 0;
  for (int r = 0; r < 4; ++r) {
    const __m256i eq = _mm256_cmpeq_epi16(aa, y);
    hits += static_cast<unsigned>(std::popcount(
        static_cast<unsigned>(_mm256_movemask_epi8(eq)) & 0xaaaaaaaau));
    y = _mm256_alignr_epi8(y, y, 4);
  }
  return hits;
}

/// Phase 2: exact accumulation of the survivor list, then the batch-wide
/// orientation swap from (candidate, base) to (base, candidate). AVX2 is
/// enough here (the signature merge is 128/256-bit), so both lanes share
/// this function.
__attribute__((target("avx2"))) void AccumulateSurvivors(
    const Profile& base, std::uint64_t bmin, std::size_t n, std::size_t k,
    PairSimilarity* out) {
  const ScoreIndex& ib = base.index();
  const std::uint32_t* b_counts = ib.item_counts.data();
  const std::uint32_t* b_offsets = ib.item_offsets.data();
  const std::uint64_t* b_sig = ib.tag_sig_b.data();
  const ActionKey* b_actions = base.actions().data();
  for (std::size_t e = 0; e < k; ++e) {
    const std::uint64_t v = t_dense.survivors[e];
    const std::size_t c = static_cast<std::size_t>(v >> 32);
    const std::size_t i = static_cast<std::size_t>(v & 0xffffffffu);
    const CandRef& cand = t_dense.tab[c];
    const std::size_t r = static_cast<std::size_t>(cand.blocks[i] - bmin);
    const std::uint64_t aw = cand.words[i];
    const std::uint64_t bw = t_dense.words[r];
    std::uint64_t both = aw & bw;
    const std::uint32_t a_rank = cand.rank[i];
    const std::uint32_t b_rank = t_dense.rank[r];
    PairSimilarity& sim = out[c];
    while (both != 0) {
      const int bit = std::countr_zero(both);
      both &= both - 1;
      const std::uint64_t below = (std::uint64_t{1} << bit) - 1;
      const std::uint32_t ai =
          a_rank + static_cast<std::uint32_t>(std::popcount(aw & below));
      const std::uint32_t bi =
          b_rank + static_cast<std::uint32_t>(std::popcount(bw & below));
      ++sim.common_items;
      sim.a_actions_on_common += cand.counts[ai];
      sim.b_actions_on_common += b_counts[bi];
      const std::uint64_t* sa = cand.sig_a + ai * 2;
      const std::uint64_t* sb = b_sig + bi * 2;
      if ((sa[0] | sa[1]) != 0 && (sb[0] | sb[1]) != 0) {
        sim.score += TagSigMerge(sa, sb);
      } else {
        sim.score += kernel_detail::MergeRuns(
            cand.actions + cand.offsets[ai], cand.counts[ai],
            b_actions + b_offsets[bi], b_counts[bi]);
      }
    }
  }
  for (std::size_t c = 0; c < n; ++c) {
    std::swap(out[c].a_actions_on_common, out[c].b_actions_on_common);
  }
}

}  // namespace

__attribute__((target("avx2"))) bool Avx2PairSimilarityBatch(
    const Profile& base, const Profile* const* candidates, std::size_t n,
    PairSimilarity* out) {
  const ScoreIndex& ib = base.index();
  std::uint64_t bmin = 0, span = 0;
  if (!BuildDenseTable(ib, &bmin, &span)) return false;
  const std::size_t total = FlattenBatch(base, candidates, n, out);
  // The compressed store writes a full vector; headroom past `total` keeps
  // the overshoot in bounds.
  t_dense.survivors.resize(total + 4);
  const __m256i vbmin = _mm256_set1_epi64x(static_cast<long long>(bmin));
  const __m256i vspan = _mm256_set1_epi64x(static_cast<long long>(span));
  const __m256i zero = _mm256_setzero_si256();
  const __m256i iota = _mm256_setr_epi64x(0, 1, 2, 3);
  const long long* table =
      reinterpret_cast<const long long*>(t_dense.words.data());
  std::size_t k = 0;
  for (std::size_t c = 0; c < n; ++c) {
    const CandRef& cand = t_dense.tab[c];
    const std::size_t ncb = cand.nblocks;
    const __m256i vc =
        _mm256_set1_epi64x(static_cast<long long>(c) << 32);
    std::size_t i = 0;
    for (; i + 4 <= ncb; i += 4) {
      const __m256i blk =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(cand.blocks + i));
      const __m256i r = _mm256_sub_epi64(blk, vbmin);
      // In-range: 0 <= r < span. Block ids fit in 58 bits, so the signed
      // compares are exact (a candidate block below bmin wraps negative).
      const __m256i ok = _mm256_andnot_si256(_mm256_cmpgt_epi64(zero, r),
                                             _mm256_cmpgt_epi64(vspan, r));
      const __m256i gathered =
          _mm256_mask_i64gather_epi64(zero, table, r, ok, 8);
      const __m256i both = _mm256_and_si256(
          gathered,
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(cand.words + i)));
      const unsigned m =
          static_cast<unsigned>(~_mm256_movemask_pd(
              _mm256_castsi256_pd(_mm256_cmpeq_epi64(both, zero)))) &
          0xf;
      const __m256i pack = _mm256_or_si256(
          vc,
          _mm256_add_epi64(iota, _mm256_set1_epi64x(static_cast<long long>(i))));
      const __m256i packed = _mm256_permutevar8x32_epi32(
          pack,
          _mm256_load_si256(
              reinterpret_cast<const __m256i*>(kSurvivorCompress[m])));
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(t_dense.survivors.data() + k), packed);
      k += static_cast<std::size_t>(std::popcount(m));
    }
    for (; i < ncb; ++i) {
      const std::uint64_t r = cand.blocks[i] - bmin;
      const std::uint64_t bw = r < span ? t_dense.words[r] : 0;
      t_dense.survivors[k] = (static_cast<std::uint64_t>(c) << 32) | i;
      k += (cand.words[i] & bw) != 0;
    }
  }
  AccumulateSurvivors(base, bmin, n, k, out);
  return true;
}

__attribute__((target("avx512f,avx512bw,avx512vl"))) bool
Avx512PairSimilarityBatch(const Profile& base, const Profile* const* candidates,
                          std::size_t n, PairSimilarity* out) {
  const ScoreIndex& ib = base.index();
  std::uint64_t bmin = 0, span = 0;
  if (!BuildDenseTable(ib, &bmin, &span)) return false;
  const std::size_t total = FlattenBatch(base, candidates, n, out);
  t_dense.survivors.resize(total + 8);
  const __m512i vbmin = _mm512_set1_epi64(static_cast<long long>(bmin));
  const __m512i vspan = _mm512_set1_epi64(static_cast<long long>(span));
  const __m512i zero = _mm512_setzero_si512();
  const __m512i iota = _mm512_setr_epi64(0, 1, 2, 3, 4, 5, 6, 7);
  std::size_t k = 0;
  for (std::size_t c = 0; c < n; ++c) {
    const CandRef& cand = t_dense.tab[c];
    const std::size_t ncb = cand.nblocks;
    const __m512i vc = _mm512_set1_epi64(static_cast<long long>(c) << 32);
    for (std::size_t i = 0; i < ncb; i += 8) {
      // The final iteration masks the ragged tail instead of falling back
      // to a scalar loop — AVX-512's k-masks make the remainder free.
      const __mmask8 live =
          ncb - i >= 8 ? static_cast<__mmask8>(0xff)
                       : static_cast<__mmask8>((1u << (ncb - i)) - 1);
      const __m512i blk = _mm512_maskz_loadu_epi64(live, cand.blocks + i);
      const __m512i r = _mm512_sub_epi64(blk, vbmin);
      // Unsigned compare: blocks below bmin wrap past any span.
      const __mmask8 ok = _mm512_mask_cmplt_epu64_mask(live, r, vspan);
      const __m512i gathered =
          _mm512_mask_i64gather_epi64(zero, ok, r, t_dense.words.data(), 8);
      const __m512i both = _mm512_and_si512(
          gathered, _mm512_maskz_loadu_epi64(live, cand.words + i));
      const __mmask8 m = _mm512_test_epi64_mask(both, both);
      const __m512i pack = _mm512_or_si512(
          vc, _mm512_add_epi64(iota, _mm512_set1_epi64(
                                         static_cast<long long>(i))));
      _mm512_mask_compressstoreu_epi64(t_dense.survivors.data() + k, m, pack);
      k += static_cast<std::size_t>(std::popcount(static_cast<unsigned>(m)));
    }
  }
  AccumulateSurvivors(base, bmin, n, k, out);
  return true;
}

#endif  // P3Q_SCORE_KERNEL_SIMD_X86

}  // namespace p3q
