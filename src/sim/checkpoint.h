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

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/random.h"
#include "profile/profile.h"

namespace p3q {

class ProfileStore;
class CycleProtocol;      // encodes its delivery messages (sim/engine.h)
struct DeliveryMessage;   // sim/engine.h
class CheckpointWriter;
class CheckpointReader;

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
/// checkpoint carries: `kLast` (its last valid value) and `kNoun` (how
/// errors name it). A keyed container's value type may declare `kNoun` for
/// its key-order error, and `KeyOf(value)` when the value carries its own
/// key — the container then stores only the values.
template <typename T>
struct CheckpointTraits {};

/// Interns every distinct profile snapshot referenced by a checkpoint so
/// replicas that share a snapshot in memory share one pool entry on disk.
/// Write the body through a CheckpointWriter built on the pool (interning
/// as you go), then serialize the pool ahead of the body.
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

/// Little-endian append-only byte sink for checkpoint payloads.
class CheckpointWriter {
 public:
  /// `pool` interns the profile snapshots Put(ProfilePtr) references; a
  /// writer without one rejects profile references.
  explicit CheckpointWriter(ProfilePool* pool = nullptr) : pool_(pool) {}

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

  /// The protocol whose DeliveryMessage payloads Put encodes next (set by
  /// the engine around each protocol's delivery queue).
  void set_messages(const CycleProtocol* protocol) { messages_ = protocol; }

  /// Writes `v` in the encoding its type selects — the one codec every
  /// checkpointed structure goes through (CheckpointReader::Get decodes
  /// it): bool as U8, enums and uint32 as U32, other integers as U64/I64,
  /// double as F64, string as Str, a ProfilePtr as its pool id, a delivery
  /// message through its protocol, Rng as its state, optional as a U8
  /// presence flag then the value, unique_ptr as its pointee, pair as both
  /// members, vector as a u64 count then the elements, array as its
  /// elements, maps and sets as a u64 count then their entries in
  /// ascending key order, and any other struct as its static Fields list
  /// in order, followed by a sentinel when it names a kCheckpointSection.
  template <typename T>
  void Put(const T& v);

  const std::vector<std::uint8_t>& buffer() const { return buf_; }

 private:
  template <typename T>
  void PutKeyed(const T& v);
  void PutProfile(const ProfilePtr& profile);
  void PutMessage(const DeliveryMessage& message);

  std::vector<std::uint8_t> buf_;
  ProfilePool* pool_;
  const CycleProtocol* messages_ = nullptr;
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

  /// Decodes the profile pool section; later profile references resolve
  /// against it (see ProfileTable::Deserialize for `reuse`).
  void ReadProfiles(std::size_t digest_bits, const ProfileStore* reuse);

  /// The protocol that decodes the DeliveryMessage payloads Get reads next.
  void set_messages(const CycleProtocol* protocol) { messages_ = protocol; }

  /// Decodes what CheckpointWriter::Put<T> wrote into `*v`. Counts are
  /// bounded by Count, enums are range-checked (CheckpointTraits), map and
  /// set keys must be strictly ascending, and a struct's section sentinel
  /// is verified. A struct with a FinishLoad() member has it called last:
  /// it rejects semantically invalid state with a CheckpointError naming
  /// the structure and rebuilds whatever the fields imply.
  template <typename T>
  void Get(T* v);

  std::size_t Remaining() const { return size_ - pos_; }
  /// Throws unless the payload was consumed exactly.
  void ExpectEnd() const;

 private:
  template <typename T>
  void GetKeyed(T* v);
  ProfilePtr GetProfile();
  std::unique_ptr<DeliveryMessage> GetMessage();
  void Need(std::size_t n) const;

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  std::optional<ProfileTable> profiles_;
  const CycleProtocol* messages_ = nullptr;
};

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

/// kIs<T, std::vector>: T is a std::vector (likewise optional, pair,
/// unique_ptr).
template <typename T, template <typename...> class Template>
inline constexpr bool kIs = false;
template <template <typename...> class Template, typename... Args>
inline constexpr bool kIs<Template<Args...>, Template> = true;

template <typename T>
inline constexpr bool kIsArray = false;
template <typename T, std::size_t N>
inline constexpr bool kIsArray<std::array<T, N>> = true;

/// std::map, std::set and their unordered variants.
template <typename T>
concept Keyed = requires { typename T::key_type; };

template <typename T>
constexpr bool kIsSet = std::is_same_v<typename T::key_type,
                                       typename T::value_type>;

/// A map whose values carry their own key (CheckpointTraits::KeyOf).
template <typename T>
concept ValuesCarryKey = requires(const typename T::mapped_type& value) {
  CheckpointTraits<typename T::mapped_type>::KeyOf(value);
};

/// How key-order errors name a keyed container T: by its mapped type's
/// noun (a vector's element names it when that is a vector).
template <typename T>
std::string Noun() {
  if constexpr (requires { CheckpointTraits<T>::kNoun; }) {
    return CheckpointTraits<T>::kNoun;
  } else if constexpr (kIs<T, std::vector>) {
    return Noun<typename T::value_type>();
  } else if constexpr (requires { typename T::mapped_type; }) {
    return Noun<typename T::mapped_type>();
  } else {
    return "container";
  }
}

/// Smallest encoding of one T — bounds a decoded count before anything is
/// allocated. A struct sums its field list, measured once on a
/// default-constructed probe.
template <typename T>
std::size_t MinBytes() {
  if constexpr (std::is_same_v<T, bool>) {
    return 1;
  } else if constexpr (std::is_enum_v<T> ||
                       std::is_same_v<T, std::uint32_t> ||
                       std::is_same_v<T, ProfilePtr>) {
    return 4;
  } else if constexpr (std::is_arithmetic_v<T> ||
                       std::is_same_v<T, std::string> || kIs<T, std::vector> ||
                       Keyed<T>) {
    return 8;
  } else if constexpr (std::is_same_v<T, std::unique_ptr<DeliveryMessage>>) {
    return 0;
  } else if constexpr (std::is_same_v<T, Rng>) {
    return 32;
  } else if constexpr (kIs<T, std::optional>) {
    return 1;
  } else if constexpr (kIs<T, std::unique_ptr>) {
    return MinBytes<typename T::element_type>();
  } else if constexpr (kIs<T, std::pair>) {
    return MinBytes<typename T::first_type>() +
           MinBytes<typename T::second_type>();
  } else if constexpr (kIsArray<T>) {
    return std::tuple_size_v<T> * MinBytes<typename T::value_type>();
  } else {
    static const std::size_t bytes = [] {
      T probe{};
      std::size_t sum = requires { T::kCheckpointSection; } ? 4 : 0;
      T::Fields(
          [&sum](const auto& field) {
            sum += MinBytes<std::decay_t<decltype(field)>>();
          },
          probe);
      return sum;
    }();
    return bytes;
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
  } else if constexpr (std::is_same_v<T, ProfilePtr>) {
    PutProfile(v);
  } else if constexpr (std::is_same_v<T, std::unique_ptr<DeliveryMessage>>) {
    PutMessage(*v);
  } else if constexpr (std::is_same_v<T, Rng>) {
    Put(v.State());
  } else if constexpr (ci::kIs<T, std::optional>) {
    U8(v.has_value() ? 1 : 0);
    if (v.has_value()) Put(*v);
  } else if constexpr (ci::kIs<T, std::unique_ptr>) {
    Put(*v);
  } else if constexpr (ci::kIs<T, std::pair>) {
    Put(v.first);
    Put(v.second);
  } else if constexpr (ci::kIs<T, std::vector>) {
    U64(v.size());
    for (const auto& element : v) Put(element);
  } else if constexpr (ci::kIsArray<T>) {
    for (const auto& element : v) Put(element);
  } else if constexpr (ci::Keyed<T>) {
    PutKeyed(v);
  } else {
    T::Fields([this](const auto& field) { Put(field); }, v);
    if constexpr (requires { T::kCheckpointSection; }) Sentinel();
  }
}

template <typename T>
void CheckpointWriter::PutKeyed(const T& v) {
  namespace ci = checkpoint_internal;
  using Entry = typename T::value_type;
  auto key = [](const Entry* e) -> const auto& {
    if constexpr (ci::kIsSet<T>) {
      return *e;
    } else {
      return e->first;
    }
  };
  std::vector<const Entry*> entries;
  entries.reserve(v.size());
  for (const Entry& e : v) entries.push_back(&e);
  std::sort(entries.begin(), entries.end(),
            [&key](const Entry* a, const Entry* b) { return key(a) < key(b); });
  U64(entries.size());
  for (const Entry* e : entries) {
    if constexpr (ci::kIsSet<T>) {
      Put(*e);
    } else {
      if constexpr (!ci::ValuesCarryKey<T>) Put(e->first);
      Put(e->second);
    }
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
  } else if constexpr (std::is_same_v<T, ProfilePtr>) {
    *v = GetProfile();
  } else if constexpr (std::is_same_v<T, std::unique_ptr<DeliveryMessage>>) {
    *v = GetMessage();
  } else if constexpr (std::is_same_v<T, Rng>) {
    std::array<std::uint64_t, 4> state;
    Get(&state);
    v->SetState(state);
  } else if constexpr (ci::kIs<T, std::optional>) {
    v->reset();
    if (U8() != 0) Get(&v->emplace());
  } else if constexpr (ci::kIs<T, std::unique_ptr>) {
    *v = std::make_unique<typename T::element_type>();
    Get(v->get());
  } else if constexpr (ci::kIs<T, std::pair>) {
    Get(&v->first);
    Get(&v->second);
  } else if constexpr (ci::kIs<T, std::vector>) {
    using Element = typename T::value_type;
    const std::uint64_t count = Count(ci::MinBytes<Element>());
    v->clear();
    v->reserve(static_cast<std::size_t>(count));
    for (std::uint64_t i = 0; i < count; ++i) Get(&v->emplace_back());
  } else if constexpr (ci::kIsArray<T>) {
    for (auto& element : *v) Get(&element);
  } else if constexpr (ci::Keyed<T>) {
    GetKeyed(v);
  } else {
    T::Fields([this](auto& field) { Get(&field); }, *v);
    if constexpr (requires { T::kCheckpointSection; }) {
      Sentinel(T::kCheckpointSection);
    }
    if constexpr (requires { v->FinishLoad(); }) v->FinishLoad();
  }
}

template <typename T>
void CheckpointReader::GetKeyed(T* v) {
  namespace ci = checkpoint_internal;
  using Key = typename T::key_type;
  static_assert(std::is_integral_v<Key>, "checkpointed keys are integers");
  std::size_t entry_bytes = ci::MinBytes<Key>();
  if constexpr (!ci::kIsSet<T>) {
    using Value = typename T::mapped_type;
    entry_bytes = ci::MinBytes<Value>() +
                  (ci::ValuesCarryKey<T> ? 0 : ci::MinBytes<Key>());
  }
  const std::uint64_t count = Count(entry_bytes);
  v->clear();
  Key previous{};
  auto check_order = [&](std::uint64_t i, Key key) {
    if (i > 0 && !(previous < key)) {
      throw CheckpointError("corrupt checkpoint: " + ci::Noun<T>() +
                            " keys out of order (" + std::to_string(key) +
                            " after " + std::to_string(previous) + ")");
    }
    previous = key;
  };
  for (std::uint64_t i = 0; i < count; ++i) {
    if constexpr (ci::kIsSet<T>) {
      Key key;
      Get(&key);
      check_order(i, key);
      v->emplace_hint(v->end(), key);
    } else if constexpr (ci::ValuesCarryKey<T>) {
      typename T::mapped_type value;
      Get(&value);
      const Key key =
          CheckpointTraits<typename T::mapped_type>::KeyOf(value);
      check_order(i, key);
      v->emplace_hint(v->end(), key, std::move(value));
    } else {
      Key key;
      Get(&key);
      check_order(i, key);
      Get(&v->emplace_hint(v->end(), key, typename T::mapped_type{})->second);
    }
  }
}

}  // namespace p3q

#endif  // P3Q_SIM_CHECKPOINT_H_
