#include "common/json.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <unordered_set>

namespace mg::json
{

namespace
{

/** Past this many keys an object checks repeats by hash, not scan. */
constexpr size_t kLinearKeyScan = 32;

/** Append code point cp (< 0x10000) as UTF-8. */
void
appendUtf8(std::string &out, unsigned cp)
{
    if (cp < 0x80) {
        out += static_cast<char>(cp);
    } else if (cp < 0x800) {
        out += static_cast<char>(0xC0 | cp >> 6);
        out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
        out += static_cast<char>(0xE0 | cp >> 12);
        out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
        out += static_cast<char>(0x80 | (cp & 0x3F));
    }
}

/** from_chars over a Number's whole text; out is kept on failure. */
template <typename T>
bool
convert(const Value &v, T &out)
{
    if (v.kind != Kind::Number)
        return false;
    const char *last = v.text.data() + v.text.size();
    T x{};
    const auto [ptr, ec] = std::from_chars(v.text.data(), last, x);
    if (ec != std::errc() || ptr != last)
        return false;
    out = x;
    return true;
}

/**
 * The one parser behind parse() and validate(): recursive descent
 * that fills the Value it is given, or only checks when given none.
 */
class Reader
{
  public:
    Reader(std::string_view text,
           std::forward_list<std::string> &decoded_strings)
        : begin(text.data()), end(text.data() + text.size()), p(begin),
          decoded(decoded_strings)
    {
        keys.reserve(64);
    }

    /** @return "" if the whole text is one value, else the problem */
    std::string
    run(Value *root)
    {
        skipWs();
        if (value(root, 0)) {
            skipWs();
            if (p != end)
                fail("trailing data");
        }
        return error;
    }

  private:
    struct Key
    {
        std::string_view text;
        uint64_t tag;
    };

    /** Every failure returns at once, so the first is the only one. */
    bool
    fail(std::string_view what)
    {
        error = std::string(what) + " at offset " + std::to_string(p - begin);
        return false;
    }

    void
    skipWs()
    {
        while (p < end &&
               (*p == ' ' || *p == '\t' || *p == '\n' || *p == '\r'))
            ++p;
    }

    static bool
    set(Value *v, Kind kind, std::string_view text, bool b = false)
    {
        if (v) {
            v->kind = kind;
            v->text = text;
            v->boolean = b;
        }
        return true;
    }

    bool
    value(Value *v, unsigned depth)
    {
        if (p >= end)
            return fail("unexpected end of input");
        std::string_view s;
        switch (*p) {
        case '{':
        case '[':
            if (depth == kMaxDepth)
                return fail("nesting deeper than " +
                            std::to_string(kMaxDepth) + " levels");
            return container(v, depth + 1);
        case '"': return string(s, v != nullptr) && set(v, Kind::String, s);
        case 't': return literal(v, "true", Kind::Bool);
        case 'f': return literal(v, "false", Kind::Bool);
        case 'n': return literal(v, "null", Kind::Null);
        default: return number(v);
        }
    }

    bool
    literal(Value *v, std::string_view word, Kind kind)
    {
        if (static_cast<size_t>(end - p) < word.size() ||
            std::string_view(p, word.size()) != word)
            return fail("expected '" + std::string(word) + "'");
        p += word.size();
        return set(v, kind, {}, word == "true");
    }

    /** Skip `skip` bytes, then a run of digits; false if there is none. */
    bool
    digits(size_t skip = 0)
    {
        p += skip;
        const char *start = p;
        while (p < end && *p >= '0' && *p <= '9')
            ++p;
        return p != start;
    }

    bool
    number(Value *v)
    {
        const char *start = p;
        if (p < end && *p == '-')
            ++p;
        if (p < end && *p == '0')
            ++p;
        else if (!digits())
            return fail("expected value");
        if (p < end && *p == '.' && !digits(1))
            return fail("bad fraction");
        if (p < end && (*p == 'e' || *p == 'E')) {
            ++p;
            if (p < end && (*p == '+' || *p == '-'))
                ++p;
            if (!digits())
                return fail("bad exponent");
        }
        return set(v, Kind::Number,
                   std::string_view(start, static_cast<size_t>(p - start)));
    }

    /**
     * Read the string opening at p into s: a view of the text or, once
     * an escape turns up, of a decoded copy.  Only a kept string (a
     * key, or a value being built) is decoded; others are checked.
     */
    bool
    string(std::string_view &s, bool keep)
    {
        static constexpr std::string_view kEscapes = "\"\\/bfnrt";
        static constexpr std::string_view kDecoded = "\"\\/\b\f\n\r\t";
        const char *start = ++p;
        std::string *copy = nullptr;
        while (true) {
            // Plain bytes, the common case, in one run.
            const char *run = p;
            while (p < end && *p != '"' && *p != '\\' &&
                   static_cast<unsigned char>(*p) >= 0x20)
                ++p;
            if (copy)
                copy->append(run, p);
            if (p >= end)
                return fail("unterminated string");
            if (*p == '"') {
                s = copy ? std::string_view(*copy)
                         : std::string_view(start,
                                            static_cast<size_t>(p - start));
                ++p;
                return true;
            }
            if (*p != '\\')
                return fail("raw control character in string");
            if (!copy && keep)
                copy = &decoded.emplace_front(start, p);
            if (++p >= end)
                return fail("unterminated escape");
            unsigned cp = 0;
            if (const size_t e = kEscapes.find(*p); e != kEscapes.npos) {
                cp = static_cast<unsigned char>(kDecoded[e]);
            } else if (*p == 'u') {
                const char *hex = p + 1;
                if (end - hex < 4 ||
                    std::from_chars(hex, hex + 4, cp, 16).ptr != hex + 4)
                    return fail("bad \\u escape");
                p += 4;
            } else {
                return fail("bad escape character");
            }
            ++p;
            if (copy)
                appendUtf8(*copy, cp);
        }
    }

    /**
     * One member's key and ':'; the key names child (when built).  The
     * object's keys so far are keys[first..]; `seen` holds them once
     * there are too many to scan.
     */
    bool
    key(Value *child, size_t first,
        std::unordered_set<std::string_view> &seen)
    {
        if (p >= end || *p != '"')
            return fail("expected object key");
        const char *at = p;
        std::string_view k;
        if (!string(k, true))
            return false;
        // The tag (length and end bytes) settles most comparisons.
        const unsigned ends =
            k.empty() ? 0
                      : static_cast<unsigned char>(k.front()) << 8 |
                            static_cast<unsigned char>(k.back());
        const uint64_t tag = static_cast<uint64_t>(k.size()) << 16 | ends;
        bool repeated = false;
        if (keys.size() - first < kLinearKeyScan) {
            for (size_t i = first; i < keys.size() && !repeated; ++i)
                repeated = keys[i].tag == tag && keys[i].text == k;
        } else {
            if (seen.empty())
                for (size_t i = first; i < keys.size(); ++i)
                    seen.insert(keys[i].text);
            repeated = !seen.insert(k).second;
        }
        if (repeated) {
            p = at;
            return fail("duplicate key '" + std::string(k) + "'");
        }
        keys.push_back({k, tag});
        if (child)
            child->key = k;
        skipWs();
        if (p >= end || *p != ':')
            return fail("expected ':'");
        ++p;
        skipWs();
        return true;
    }

    bool
    container(Value *v, unsigned depth)
    {
        const bool object = *p == '{';
        const char close = object ? '}' : ']';
        if (v)
            v->kind = object ? Kind::Object : Kind::Array;
        const size_t firstKey = keys.size();
        std::unordered_set<std::string_view> seen; // big objects only
        ++p;
        skipWs();
        if (p < end && *p == close) {
            ++p;
            return true;
        }
        while (true) {
            Value *child = v ? &v->children.emplace_back() : nullptr;
            if (object && !key(child, firstKey, seen))
                return false;
            if (!value(child, depth))
                return false;
            skipWs();
            if (p < end && *p == close) {
                ++p;
                keys.resize(firstKey);
                return true;
            }
            if (p >= end)
                return fail(object ? "unterminated object"
                                   : "unterminated array");
            if (*p != ',')
                return fail(std::string("expected ',' or '") + close + "'");
            ++p;
            skipWs();
        }
    }

    const char *const begin;
    const char *const end;
    const char *p;
    std::forward_list<std::string> &decoded; ///< escaped strings kept
    std::vector<Key> keys; ///< of the open objects, outermost first
    std::string error;
};

} // namespace

const Value *
Value::find(std::string_view name) const
{
    if (kind == Kind::Object)
        for (const Value &m : children)
            if (m.key == name)
                return &m;
    return nullptr;
}

std::string
parse(std::string_view text, Document &doc)
{
    doc = Document{};
    doc.text.reset(new char[text.size() + 1]);
    std::copy(text.begin(), text.end(), doc.text.get());
    std::string err =
        Reader(std::string_view(doc.text.get(), text.size()), doc.decoded)
            .run(&doc.root);
    if (!err.empty())
        doc.root = Value{};
    return err;
}

std::string
validate(std::string_view text)
{
    std::forward_list<std::string> decoded;
    return Reader(text, decoded).run(nullptr);
}

bool
toU64(const Value &v, uint64_t &out)
{
    // from_chars takes no sign for an unsigned type and stops at '.'
    // or 'e', so only a whole plain-digit text converts.
    return convert(v, out);
}

bool
toDouble(const Value &v, double &out)
{
    // The grammar has no NaN or Infinity and from_chars refuses
    // overflow, so whatever converts is finite.
    return convert(v, out);
}

std::string
escape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        case '\r': out += "\\r"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

} // namespace mg::json
