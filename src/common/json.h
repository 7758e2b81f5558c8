/**
 * @file
 * The repo's one JSON reader and its one string escaper.
 *
 * The reader takes exactly RFC 8259, hardened for input read from
 * disk: the strict number grammar, no raw control bytes in strings, at
 * most kMaxDepth nested containers, each key once per object, nothing
 * after the value.  Errors read "<what> at offset <byte>".  validate()
 * builds nothing, so it suits artefacts of any size; parse() keeps
 * numbers as raw text (64-bit counters round-trip) and members in
 * document order.  Writers keep their own layouts.
 */

#ifndef MG_COMMON_JSON_H
#define MG_COMMON_JSON_H

#include <cstdint>
#include <forward_list>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace mg::json
{

/**
 * Deepest container nesting accepted.  The deepest document the repo
 * writes has 4 levels (a Chrome trace event's "args").
 */
inline constexpr unsigned kMaxDepth = 32;

enum class Kind : uint8_t { Null, Bool, Number, String, Array, Object };

/** One value of a parsed Document; its views live as long as it. */
struct Value
{
    Kind kind = Kind::Null;
    bool boolean = false;        ///< Bool
    std::string_view text;       ///< raw Number text, decoded String
    std::string_view key;        ///< member name (object members)
    std::vector<Value> children; ///< Array elements, Object members

    /** The member named `name`, or nullptr (also for non-objects). */
    const Value *find(std::string_view name) const;
};

/** A parsed document and the bytes its values view. */
struct Document
{
    Value root;
    std::unique_ptr<char[]> text;           ///< a copy of the input
    std::forward_list<std::string> decoded; ///< strings with escapes
};

/**
 * Parse one complete JSON document.
 * @return "" on success (doc filled), else the first problem
 */
std::string parse(std::string_view text, Document &doc);

/**
 * Check one complete document by parse()'s rules, building nothing.
 * @return "" if valid, else the first problem
 */
std::string validate(std::string_view text);

/**
 * A Number whose text is a plain non-negative integer below 2^64:
 * "-5", "1.5", "1e3" and 2^64 are refused.
 * @retval true on success (out set; else out is unchanged)
 */
bool toU64(const Value &v, uint64_t &out);

/**
 * A Number within double range ("1e400" and "1e-400" are refused).
 * @retval true on success (out set; else out is unchanged)
 */
bool toDouble(const Value &v, double &out);

/**
 * Escape a string for use between JSON double quotes: '"', '\\',
 * \n, \t and \r get short escapes, other bytes below 0x20 \u00XX, and
 * every other byte passes through.
 */
std::string escape(std::string_view s);

} // namespace mg::json

#endif // MG_COMMON_JSON_H
