// Versioned binary snapshots of a running simulation.
//
// Everything a cycle barrier owns — node state, in-flight messages, rng
// stream cursors, metric accumulators, the runner's timeline position — is
// serializable, because the engine's plan/commit contract guarantees that
// between cycles no shard-local scratch state survives. A checkpoint taken
// at the top of cycle K therefore captures the complete system, and a
// resumed run replays the remaining timeline byte-identically: same
// reports, same traces, for every thread count and latency model.
//
// On-disk format (all integers little-endian, doubles as IEEE-754 bit
// patterns):
//
//   magic   8 bytes  "P3QCKPT\0"
//   version u32      kCheckpointVersion (currently 1)
//   crc32   u32      CRC-32 (polynomial 0xEDB88320) of the payload
//   payload          header / profile pool / system / runner sections,
//                    each terminated by a section sentinel
//
// Every decode path is bounds-checked and throws CheckpointError on any
// structural problem (truncation, bad magic, future version, checksum
// mismatch, out-of-range ids) — corrupt input must never crash or invoke
// undefined behaviour.
#ifndef P3Q_SIM_CHECKPOINT_H_
#define P3Q_SIM_CHECKPOINT_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "gossip/view.h"
#include "profile/profile.h"
#include "sim/metrics.h"

namespace p3q {

class ProfileStore;

/// Typed error for every way a snapshot can fail to load: missing file,
/// bad magic, unsupported version, checksum mismatch, truncation, or a
/// semantically invalid field. Messages are human-friendly and name the
/// offending structure.
class CheckpointError : public std::runtime_error {
 public:
  explicit CheckpointError(const std::string& what)
      : std::runtime_error(what) {}
};

/// First 8 bytes of every checkpoint file.
inline constexpr unsigned char kCheckpointMagic[8] = {'P', '3', 'Q', 'C',
                                                      'K', 'P', 'T', '\0'};

/// Current on-disk format version. Bump on any incompatible layout change;
/// loaders reject snapshots written by a newer build.
inline constexpr std::uint32_t kCheckpointVersion = 1;

/// Profile-pool reference meaning "null ProfilePtr".
inline constexpr std::uint32_t kNullProfileRef = 0xffffffffu;

/// CRC-32 (IEEE 802.3, polynomial 0xEDB88320) over a byte range.
std::uint32_t Crc32(const std::uint8_t* data, std::size_t size);

/// What a field list cannot say about a type. Specialize for every enum a
/// checkpoint carries — `kLast` (its last valid value) and `kNoun` (how
/// errors name it) — and for every struct stored in a vector: `kMinBytes`,
/// the smallest encoding of one element, which bounds a decoded count
/// before anything is allocated.
template <typename T>
struct CheckpointTraits;

/// Little-endian append-only byte sink for checkpoint payloads.
class CheckpointWriter {
 public:
  void U8(std::uint8_t v) { buf_.push_back(v); }
  void U32(std::uint32_t v);
  void U64(std::uint64_t v);
  void I64(std::int64_t v) { U64(static_cast<std::uint64_t>(v)); }
  /// Doubles travel as their IEEE-754 bit pattern — exact round-trip.
  void F64(double v);
  /// Length-prefixed (u64) byte string.
  void Str(const std::string& s);
  void Bytes(const void* data, std::size_t size);
  /// Writes a section-boundary sentinel; readers verify it by name.
  void Sentinel();
  /// Appends another writer's buffer verbatim (used to order the profile
  /// pool ahead of the body that interned into it).
  void Append(const CheckpointWriter& other);

  /// Writes `v` in the encoding its type selects — the one codec every
  /// field list is walked with (CheckpointReader::Get decodes it): bool as
  /// U8, enums and uint32 as U32, other integers as U64/I64, double as
  /// F64, string as Str, optional as a U8 presence flag then the value,
  /// vector as a u64 count then the elements, array as its elements, Rng
  /// as its state, a type with SaveState through that, and any other
  /// struct as its static Fields list in order.
  template <typename T>
  void Put(const T& v);

  const std::vector<std::uint8_t>& buffer() const { return buf_; }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked little-endian reader over a checkpoint payload. Every
/// primitive read throws CheckpointError instead of running off the end.
class CheckpointReader {
 public:
  CheckpointReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  std::uint8_t U8();
  std::uint32_t U32();
  std::uint64_t U64();
  std::int64_t I64() { return static_cast<std::int64_t>(U64()); }
  double F64();
  std::string Str();
  /// Reads an element count and validates it against the bytes actually
  /// remaining (each element needs at least `min_elem_size` bytes), so a
  /// corrupted count can never trigger a huge allocation.
  std::uint64_t Count(std::size_t min_elem_size);
  /// Verifies a section-boundary sentinel; `section` names it in errors.
  void Sentinel(const char* section);

  /// Decodes what CheckpointWriter::Put<T> wrote into `*v`. Vector counts
  /// are bounded by Count, enums are range-checked (CheckpointTraits), and
  /// a type with LoadState decodes through that.
  template <typename T>
  void Get(T* v);

  std::size_t Remaining() const { return size_ - pos_; }
  /// Throws unless the payload was consumed exactly.
  void ExpectEnd() const;

 private:
  void Need(std::size_t n) const;

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

/// Interns every distinct profile snapshot referenced by a checkpoint so
/// replicas that share a snapshot in memory share one pool entry on disk.
/// Write the body into a scratch writer (interning as you go), then
/// serialize the pool ahead of the body.
class ProfilePool {
 public:
  /// Returns the pool id of `profile`, interning it on first sight.
  /// A null pointer maps to kNullProfileRef.
  std::uint32_t Intern(const ProfilePtr& profile);

  /// Writes the pool: count, then per profile owner/version/actions.
  void Serialize(CheckpointWriter* out) const;

  std::size_t size() const { return profiles_.size(); }

 private:
  std::unordered_map<const Profile*, std::uint32_t> ids_;
  std::vector<ProfilePtr> profiles_;
};

/// The load-side counterpart: reconstructs every pooled snapshot once (the
/// Profile constructor deterministically rebuilds digest and score index)
/// and resolves pool ids back to shared ProfilePtr handles.
///
/// When `reuse` is given, each pooled entry is first looked up in the
/// store's snapshot pool: a live snapshot with the same (owner, version)
/// and byte-identical action set is shared instead of rebuilt, and cache
/// misses rebuild into the store's arena shard for that owner — so a
/// restored system's profile memory lands back on the slab arenas.
class ProfileTable {
 public:
  static ProfileTable Deserialize(CheckpointReader* in,
                                  std::size_t digest_bits,
                                  const ProfileStore* reuse = nullptr);

  /// Resolves a pool id; kNullProfileRef yields a null pointer, anything
  /// else out of range throws.
  const ProfilePtr& Get(std::uint32_t id) const;

  std::size_t size() const { return profiles_.size(); }

 private:
  std::vector<ProfilePtr> profiles_;
  ProfilePtr null_;
};

// Shared small-structure codecs used by several checkpoint sections.

/// Writes a (user, profile snapshot) descriptor as user id + pool ref.
void WriteDigestInfo(CheckpointWriter* out, ProfilePool* pool,
                     const DigestInfo& digest);

/// Reads a descriptor; throws when the snapshot reference is null or out of
/// range (a digest always carries a snapshot).
DigestInfo ReadDigestInfo(CheckpointReader* in, const ProfileTable& profiles);

void WriteRngState(CheckpointWriter* out, const Rng& rng);
void ReadRngState(CheckpointReader* in, Rng* rng);

/// Frames `payload` (magic, version, CRC) and writes it to `path`.
/// Throws CheckpointError on I/O failure.
void WriteCheckpointFile(const std::string& path,
                         const CheckpointWriter& payload);

/// Reads `path`, validates magic/version/CRC, and returns the payload
/// bytes. Throws CheckpointError with a friendly message on any problem.
std::vector<std::uint8_t> ReadCheckpointPayload(const std::string& path);

// ---------------------------------------------------------------------------
// The typed codec behind Put/Get.
// ---------------------------------------------------------------------------

namespace checkpoint_internal {

template <typename T>
struct IsOptional : std::false_type {};
template <typename T>
struct IsOptional<std::optional<T>> : std::true_type {};

template <typename T>
struct IsVector : std::false_type {};
template <typename T>
struct IsVector<std::vector<T>> : std::true_type {};

template <typename T>
struct IsArray : std::false_type {};
template <typename T, std::size_t N>
struct IsArray<std::array<T, N>> : std::true_type {};

/// Encoded size of one vector element of type T (a lower bound for structs).
template <typename T>
constexpr std::size_t MinBytes() {
  if constexpr (std::is_class_v<T>) {
    return CheckpointTraits<T>::kMinBytes;
  } else if constexpr (std::is_same_v<T, bool>) {
    return 1;
  } else if constexpr (std::is_enum_v<T> || std::is_same_v<T, std::uint32_t>) {
    return 4;
  } else {
    return 8;
  }
}

}  // namespace checkpoint_internal

template <typename T>
void CheckpointWriter::Put(const T& v) {
  namespace ci = checkpoint_internal;
  if constexpr (std::is_same_v<T, bool>) {
    U8(v ? 1 : 0);
  } else if constexpr (std::is_enum_v<T> || std::is_same_v<T, std::uint32_t>) {
    U32(static_cast<std::uint32_t>(v));
  } else if constexpr (std::is_floating_point_v<T>) {
    F64(v);
  } else if constexpr (std::is_signed_v<T>) {
    I64(v);
  } else if constexpr (std::is_unsigned_v<T>) {
    U64(v);
  } else if constexpr (std::is_same_v<T, std::string>) {
    Str(v);
  } else if constexpr (std::is_same_v<T, Rng>) {
    WriteRngState(this, v);
  } else if constexpr (ci::IsOptional<T>::value) {
    U8(v.has_value() ? 1 : 0);
    if (v.has_value()) Put(*v);
  } else if constexpr (ci::IsVector<T>::value) {
    U64(v.size());
    for (const auto& element : v) Put(element);
  } else if constexpr (ci::IsArray<T>::value) {
    for (const auto& element : v) Put(element);
  } else if constexpr (requires { v.SaveState(this); }) {
    v.SaveState(this);
  } else {
    T::Fields([this](const auto& field) { Put(field); }, v);
  }
}

template <typename T>
void CheckpointReader::Get(T* v) {
  namespace ci = checkpoint_internal;
  if constexpr (std::is_same_v<T, bool>) {
    *v = U8() != 0;
  } else if constexpr (std::is_enum_v<T>) {
    const std::uint32_t raw = U32();
    if (raw > static_cast<std::uint32_t>(CheckpointTraits<T>::kLast)) {
      throw CheckpointError(std::string("unknown ") +
                            CheckpointTraits<T>::kNoun + " " +
                            std::to_string(raw) + " in checkpoint");
    }
    *v = static_cast<T>(raw);
  } else if constexpr (std::is_same_v<T, std::uint32_t>) {
    *v = U32();
  } else if constexpr (std::is_floating_point_v<T>) {
    *v = F64();
  } else if constexpr (std::is_signed_v<T>) {
    *v = static_cast<T>(I64());
  } else if constexpr (std::is_unsigned_v<T>) {
    *v = static_cast<T>(U64());
  } else if constexpr (std::is_same_v<T, std::string>) {
    *v = Str();
  } else if constexpr (std::is_same_v<T, Rng>) {
    ReadRngState(this, v);
  } else if constexpr (ci::IsOptional<T>::value) {
    v->reset();
    if (U8() != 0) Get(&v->emplace());
  } else if constexpr (ci::IsVector<T>::value) {
    using Element = typename T::value_type;
    const std::uint64_t count = Count(ci::MinBytes<Element>());
    v->clear();
    v->reserve(static_cast<std::size_t>(count));
    for (std::uint64_t i = 0; i < count; ++i) Get(&v->emplace_back());
  } else if constexpr (ci::IsArray<T>::value) {
    for (auto& element : *v) Get(&element);
  } else if constexpr (requires { v->LoadState(this); }) {
    v->LoadState(this);
  } else {
    T::Fields([this](auto& field) { Get(&field); }, *v);
  }
}

}  // namespace p3q

#endif  // P3Q_SIM_CHECKPOINT_H_
