// Typed join keys for the vanilla joins (broadcast-hash, shuffled-hash and
// sort-merge in physical.cpp).
//
// A join picks one key class from its two key column types, then reads every
// row's key exactly once as a plain int64_t, double or string_view — never as
// a Value. The sort-merge reduce sorts (key, row) vectors with the class's
// strict weak order and merges equal-key groups; the hash joins route, build
// and probe with the class's key code and check candidates with its equality.
//
//   bool/int32/int64 on both sides  -> kInt64:   exact integer comparison
//   float64 on either side          -> kFloat64: double comparison; NaN never
//                                      matches and sorts after every number;
//                                      -0.0 equals 0.0
//   string on both sides            -> kString:  bytewise comparison of views
//                                      into the shuffle buffer or column arena
//                                      the task holds
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/hash.h"
#include "common/status.h"
#include "sql/columnar.h"
#include "storage/row_layout.h"

namespace idf {

enum class JoinKeyClass { kInt64, kFloat64, kString };

/// The key class joining a `left`-typed key column with a `right`-typed one;
/// InvalidArgument when a string key meets a non-string key.
inline Result<JoinKeyClass> JoinKeyClassOf(TypeId left, TypeId right) {
  const bool left_string = left == TypeId::kString;
  const bool right_string = right == TypeId::kString;
  if (left_string || right_string) {
    if (left_string && right_string) return JoinKeyClass::kString;
    return Status::InvalidArgument("join keys of incompatible types " +
                                   std::string(TypeName(left)) + " and " +
                                   std::string(TypeName(right)));
  }
  if (left == TypeId::kFloat64 || right == TypeId::kFloat64) {
    return JoinKeyClass::kFloat64;
  }
  return JoinKeyClass::kInt64;
}

/// Exact integer keys. The code is the value itself, as in KeyCodeAt.
struct Int64JoinKeys {
  using Key = int64_t;

  static Key Read(const RowLayout& layout, const uint8_t* row, size_t col) {
    switch (layout.schema().field(col).type) {
      case TypeId::kBool: return layout.GetBool(row, col) ? 1 : 0;
      case TypeId::kInt32: return layout.GetInt32(row, col);
      default: return layout.GetInt64(row, col);
    }
  }
  static Key Read(const ColumnVector& column, size_t i) {
    switch (column.type()) {
      case TypeId::kBool: return column.BoolAt(i) ? 1 : 0;
      case TypeId::kInt32: return column.Int32At(i);
      default: return column.Int64At(i);
    }
  }
  static bool Less(Key a, Key b) { return a < b; }
  static bool Equal(Key a, Key b) { return a == b; }
  static uint64_t Code(Key k) { return static_cast<uint64_t>(k); }
};

/// Double keys, integers widened. NaN is one equivalence class ordered after
/// every number that equals nothing, itself included.
struct Float64JoinKeys {
  using Key = double;

  static Key Read(const RowLayout& layout, const uint8_t* row, size_t col) {
    switch (layout.schema().field(col).type) {
      case TypeId::kBool: return layout.GetBool(row, col) ? 1.0 : 0.0;
      case TypeId::kInt32: return layout.GetInt32(row, col);
      case TypeId::kInt64:
        return static_cast<double>(layout.GetInt64(row, col));
      default: return layout.GetFloat64(row, col);
    }
  }
  static Key Read(const ColumnVector& column, size_t i) {
    switch (column.type()) {
      case TypeId::kBool: return column.BoolAt(i) ? 1.0 : 0.0;
      case TypeId::kInt32: return column.Int32At(i);
      case TypeId::kInt64: return static_cast<double>(column.Int64At(i));
      default: return column.Float64At(i);
    }
  }
  static bool Less(Key a, Key b) {
    if (std::isnan(b)) return !std::isnan(a);
    return a < b;
  }
  static bool Equal(Key a, Key b) { return a == b; }
  static uint64_t Code(Key k) { return HashDouble(k); }
};

/// String keys as views; the caller keeps their buffers alive and pinned.
struct StringJoinKeys {
  using Key = std::string_view;

  static Key Read(const RowLayout& layout, const uint8_t* row, size_t col) {
    return layout.GetString(row, col);
  }
  static Key Read(const ColumnVector& column, size_t i) {
    return column.StringAt(i);
  }
  static bool Less(Key a, Key b) { return a < b; }
  static bool Equal(Key a, Key b) { return a == b; }
  static uint64_t Code(Key k) { return HashString(k); }
};

/// One row's key, read once, next to the row it came from.
template <typename Keys, typename Ref = const uint8_t*>
struct KeyedRow {
  typename Keys::Key key;
  Ref row;
};

/// Reads the key of every encoded row once, next to the row. Keys must be
/// non-null.
template <typename Keys>
std::vector<KeyedRow<Keys>> ReadKeys(const std::vector<const uint8_t*>& rows,
                                     const RowLayout& layout, size_t col) {
  std::vector<KeyedRow<Keys>> keyed;
  keyed.reserve(rows.size());
  for (const uint8_t* row : rows) {
    keyed.push_back({Keys::Read(layout, row, col), row});
  }
  return keyed;
}

/// ReadKeys, releasing `rows`, then a stable sort by key: rows with equal
/// keys keep their order in `rows`.
template <typename Keys>
std::vector<KeyedRow<Keys>> SortedByKey(std::vector<const uint8_t*> rows,
                                        const RowLayout& layout, size_t col) {
  std::vector<KeyedRow<Keys>> keyed = ReadKeys<Keys>(rows, layout, col);
  rows = {};
  std::stable_sort(keyed.begin(), keyed.end(),
                   [](const KeyedRow<Keys>& a, const KeyedRow<Keys>& b) {
                     return Keys::Less(a.key, b.key);
                   });
  return keyed;
}

/// Calls `fn` with a value of the key type for `key_class`.
template <typename Fn>
decltype(auto) VisitJoinKeys(JoinKeyClass key_class, Fn&& fn) {
  switch (key_class) {
    case JoinKeyClass::kInt64: return fn(Int64JoinKeys{});
    case JoinKeyClass::kFloat64: return fn(Float64JoinKeys{});
    case JoinKeyClass::kString: break;
  }
  return fn(StringJoinKeys{});
}

}  // namespace idf
