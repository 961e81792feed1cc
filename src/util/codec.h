// Versioned binary snapshot codec for checkpoint/restore.
//
// The always-on service plane (lg::fleet) snapshots a live shard — SoA RIBs,
// interned path tables, episode machines, budgets, observability registries —
// and a restored process must resume *byte-identically*. That rules out any
// text round-trip (printf/parse loses the low bits of a double) and any
// pointer- or hash-order-dependent encoding. BinWriter/BinReader therefore
// have one encoding per kind of value: every integer, count and length is an
// unsigned LEB128 varint, a flag or enum is one byte, and a double is its
// bit-exact IEEE-754 pattern in 8 bytes. Only a section's magic tag and
// version are fixed-width, so an old snapshot fails loudly at its header
// instead of misparsing.
//
// Each checkpointed type declares its layout once, as a static member
// template that both archives drive and that reaches its private state
// directly:
//
//   class Foo {
//    public:
//     template <class Ar, class Self>
//     static void layout(Ar& ar, Self& self) {
//       ar.magic(kTag, kVersion);
//       ar.var(self.count_);
//       ar.vec(self.levels_, 8, [&](auto& x) { ar.f64(x); });
//     }
//    ...
//   };
//
// Saving passes a BinWriter and Self is usually const Foo: every call writes
// its field. Loading passes a BinReader and Self is Foo: the same call reads
// into it. A field added to the format is added in one place, so the two
// directions cannot drift, and no getter or setter exists only for the
// checkpoint. Steps only one direction needs — a mismatch check, an index
// rebuilt — sit in the same function under `if constexpr (Ar::kLoading)`.
// Dispatch is static throughout: two concrete archive classes, no virtual
// call or std::function per field.
//
// A run of records (vec, or count then one record() per record) states the
// fewest bytes one record can take. The reader bounds the run's count by the
// bytes left over that minimum, so a corrupt count cannot size an
// allocation; the writer throws std::logic_error on a record shorter than
// it, since a minimum above a real record would make a valid blob
// unloadable.
//
// Decode errors throw std::runtime_error: a snapshot is operator input, and
// the topology loader set the convention that malformed input gets a
// diagnostic, not undefined behaviour.
#pragma once

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace lg::util {

// S is T when loading into it and const T when saving it.
template <class S, class T>
concept MaybeConst = std::same_as<std::remove_const_t<S>, T>;

class BinWriter {
 public:
  static constexpr bool kLoading = false;

  // Every snapshot section starts with a magic tag + version, so a reader
  // can verify it is looking at the section it expects.
  void magic(std::uint32_t tag, std::uint32_t version) {
    put(tag, 4);
    put(version, 4);
  }

  void b(bool v) { buf_.push_back(v ? 1 : 0); }
  // An enum stored as one byte; the reader rejects values past `last`.
  template <class E>
    requires std::is_enum_v<E>
  void enum8(E v, E /*last*/, const char* /*what*/) {
    buf_.push_back(static_cast<char>(static_cast<std::uint8_t>(v)));
  }
  // Unsigned LEB128: seven bits a byte, low group first, the high bit set on
  // every byte but the last; a u64 takes one to ten bytes.
  void var(std::uint64_t v) {
    for (; v >= 0x80; v >>= 7) {
      buf_.push_back(static_cast<char>((v & 0x7f) | 0x80));
    }
    buf_.push_back(static_cast<char>(v));
  }
  // A record count; each record follows under record().
  void count(std::size_t n, std::size_t /*min_record_bytes*/) { var(n); }
  // One record, as `fn` writes it, checked against its stated minimum.
  template <class Fn>
  void record(std::size_t min_record_bytes, Fn&& fn) {
    const std::size_t start = buf_.size();
    fn();
    const std::size_t wrote = buf_.size() - start;
    if (wrote < min_record_bytes) {
      throw std::logic_error(
          "snapshot: a " + std::to_string(wrote) +
          "-byte record under a stated minimum of " +
          std::to_string(min_record_bytes) + " bytes");
    }
  }
  // Bit-exact: doubles round-trip through their IEEE-754 representation.
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    put(bits, 8);
  }
  void str(const std::string& s) {
    var(s.size());
    buf_.append(s);
  }

  template <class T, class Fn>
  void vec(const std::vector<T>& v, std::size_t min_record_bytes, Fn&& fn) {
    count(v.size(), min_record_bytes);
    for (const T& x : v) record(min_record_bytes, [&] { fn(x); });
  }
  template <class T, class Fn>
  void opt(const std::optional<T>& v, Fn&& fn) {
    b(v.has_value());
    if (v.has_value()) fn(*v);
  }

  const std::string& blob() const noexcept { return buf_; }
  std::string take() { return std::move(buf_); }

 private:
  void put(std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      buf_.push_back(static_cast<char>(v >> (8 * i)));
    }
  }

  std::string buf_;
};

class BinReader {
 public:
  static constexpr bool kLoading = true;

  explicit BinReader(const std::string& blob) : buf_(&blob) {}

  void magic(std::uint32_t tag, std::uint32_t version) {
    const std::uint64_t got_tag = get(4);
    const std::uint64_t got_version = get(4);
    if (got_tag != tag) {
      throw std::runtime_error("snapshot: bad section tag (corrupt or "
                               "truncated snapshot)");
    }
    if (got_version != version) {
      throw std::runtime_error(
          "snapshot: section version " + std::to_string(got_version) +
          ", this build reads version " + std::to_string(version));
    }
  }

  bool b() { return get(1) != 0; }
  std::uint64_t var() {
    std::uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      const std::uint64_t byte = get(1);
      // The tenth byte holds bit 63 alone.
      if (shift == 63 && byte > 1) {
        throw std::runtime_error(
            "snapshot: varint longer than 10 bytes or past 64 bits");
      }
      v |= (byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) return v;
    }
    return v;  // unreachable: the tenth byte either ends it or throws
  }
  // A count of records, validated against what could possibly fit.
  std::size_t count(std::size_t min_record_bytes) {
    const std::uint64_t n = var();
    if (min_record_bytes != 0 && n > remaining() / min_record_bytes) {
      throw std::runtime_error("snapshot: record count exceeds blob length");
    }
    return static_cast<std::size_t>(n);
  }
  double f64() {
    const std::uint64_t bits = get(8);
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  std::string str() {
    const std::size_t n = count(1);  // one byte per character
    std::string s = buf_->substr(pos_, n);
    pos_ += n;
    return s;
  }

  // The same calls as BinWriter's, reading into the field.
  void b(bool& v) { v = b(); }
  // A byte cast into an enum is only as good as its range check: a
  // corrupt byte must fail the load, not become a state no switch handles.
  template <class E>
    requires std::is_enum_v<E>
  void enum8(E& v, E last, const char* what) {
    const std::uint64_t raw = get(1);
    if (raw > static_cast<std::uint8_t>(last)) {
      throw std::runtime_error(std::string("snapshot: ") + what + " byte " +
                               std::to_string(raw) + " is out of range");
    }
    v = static_cast<E>(raw);
  }
  // A value past what the field's type holds is corruption, not a number
  // to truncate.
  template <std::integral T>
  void var(T& v) {
    const std::uint64_t raw = var();
    if (raw > static_cast<std::uint64_t>(std::numeric_limits<T>::max())) {
      throw std::runtime_error("snapshot: varint " + std::to_string(raw) +
                               " does not fit its field");
    }
    v = static_cast<T>(raw);
  }
  void count(std::size_t& n, std::size_t min_record_bytes) {
    n = count(min_record_bytes);
  }
  template <class Fn>
  void record(std::size_t /*min_record_bytes*/, Fn&& fn) {
    fn();
  }
  void f64(double& v) { v = f64(); }
  void str(std::string& s) { s = str(); }

  // Loading replaces the container: a fresh vector of exactly the saved
  // length, each element read in place.
  template <class T, class Fn>
  void vec(std::vector<T>& v, std::size_t min_record_bytes, Fn&& fn) {
    v = std::vector<T>(count(min_record_bytes));
    for (T& x : v) fn(x);
  }
  template <class T, class Fn>
  void opt(std::optional<T>& v, Fn&& fn) {
    v.reset();
    if (b()) fn(v.emplace());
  }

  bool at_end() const noexcept { return pos_ == buf_->size(); }
  std::size_t remaining() const noexcept { return buf_->size() - pos_; }

 private:
  // `bytes` little-endian bytes, at most 8.
  std::uint64_t get(int bytes) {
    if (remaining() < static_cast<std::size_t>(bytes)) {
      throw std::runtime_error("snapshot: truncated blob");
    }
    std::uint64_t v = 0;
    for (int i = 0; i < bytes; ++i) {
      v |= static_cast<std::uint64_t>(
               static_cast<std::uint8_t>((*buf_)[pos_++]))
           << (8 * i);
    }
    return v;
  }

  const std::string* buf_;
  std::size_t pos_ = 0;
};

// A hash map, saved in ascending key order so the bytes never depend on
// hash-table iteration order; loading replaces the map. `fn(key, value)`
// declares the entry layout.
template <class Ar, class Map, class Fn>
void sorted_map(Ar& ar, Map& m, std::size_t min_entry_bytes, Fn&& fn) {
  if constexpr (Ar::kLoading) {
    m.clear();
    const std::size_t n = ar.count(min_entry_bytes);
    for (std::size_t i = 0; i < n; ++i) {
      typename Map::key_type key{};
      typename Map::mapped_type value{};
      fn(key, value);
      m.emplace(std::move(key), std::move(value));
    }
  } else {
    std::vector<const typename Map::value_type*> entries;
    entries.reserve(m.size());
    for (const auto& e : m) entries.push_back(&e);
    std::sort(entries.begin(), entries.end(),
              [](const auto* a, const auto* b) { return a->first < b->first; });
    ar.count(entries.size(), min_entry_bytes);
    for (const auto* e : entries) {
      ar.record(min_entry_bytes, [&] { fn(e->first, e->second); });
    }
  }
}

// The occupied entries of a table indexed 0..n-1, ascending: their count,
// then for each its index, delta-coded (the first as is, each later one as
// the step from the one before), followed by `fn(i)`'s layout of entry i.
// Saving writes the indices `occupied` accepts; loading calls fn for each
// index read, and rejects one at or past `n` or not above its predecessor
// (`what` names the index in the diagnostic).
template <class Ar, class Occupied, class Fn>
void ascending(Ar& ar, std::size_t n, std::size_t min_entry_bytes,
               const char* what, Occupied&& occupied, Fn&& fn) {
  if constexpr (Ar::kLoading) {
    const std::size_t k = ar.count(min_entry_bytes);
    std::uint64_t i = 0;
    for (std::size_t j = 0; j < k; ++j) {
      const std::uint64_t step = ar.var();
      if (j != 0 && step == 0) {
        throw std::runtime_error(std::string("snapshot: ") + what +
                                 " indices do not ascend");
      }
      if (step >= n - i) {
        throw std::runtime_error(std::string("snapshot: ") + what +
                                 " index at or past " + std::to_string(n));
      }
      i += step;
      fn(static_cast<std::size_t>(i));
    }
  } else {
    std::size_t k = 0;
    for (std::size_t i = 0; i < n; ++i) k += occupied(i) ? 1 : 0;
    ar.count(k, min_entry_bytes);
    std::size_t prev = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (!occupied(i)) continue;
      ar.record(min_entry_bytes, [&] {
        ar.var(i - prev);
        fn(i);
      });
      prev = i;
    }
  }
}

// A bounded ring of `cap` slots after `total` pushes: push k went to slot
// k % cap, so the last min(total, cap) pushes are held. Saved as their count
// and then each entry, oldest first, as `fn` lays it out. Loading rejects a
// count above min(total, cap) (`what` names the ring in the diagnostic),
// sizes `slots` to `cap` if the ring holds entries and empties it if not,
// and puts each entry back in its slot, so the next push lands where it
// would have. Returns the count saved or loaded.
template <class Ar, class Slots, class Fn>
std::size_t ring(Ar& ar, Slots& slots, std::uint64_t total, std::size_t cap,
                 std::size_t min_entry_bytes, const char* what, Fn&& fn) {
  const std::uint64_t held = std::min<std::uint64_t>(total, cap);
  std::size_t n = static_cast<std::size_t>(held);
  ar.count(n, min_entry_bytes);
  if constexpr (Ar::kLoading) {
    if (n > held) {
      throw std::runtime_error(
          std::string("snapshot: ") + what + " holds " + std::to_string(n) +
          " entries, past the " + std::to_string(held) +
          " its push total and capacity allow");
    }
    slots.assign(held > 0 ? cap : 0, {});
  }
  for (std::size_t i = 0; i < n; ++i) {
    ar.record(min_entry_bytes, [&] { fn(slots[(total - n + i) % cap]); });
  }
  return n;
}

}  // namespace lg::util
