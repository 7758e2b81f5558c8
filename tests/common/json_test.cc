/**
 * @file
 * The JSON reader and escaper (common/json.h): one grammar table that
 * validate() and parse() must answer identically, the document
 * accessors, the checked conversions, and the escaper read back.
 */

#include "common/json.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace mg::json
{
namespace
{

/** `depth` nested arrays around a 0. */
std::string
nested(size_t depth)
{
    return std::string(depth, '[') + "0" + std::string(depth, ']');
}

/** An object with `n` distinct keys, then `extra` appended. */
std::string
wideObject(size_t n, const std::string &extra)
{
    std::string out = "{";
    for (size_t i = 0; i < n; ++i)
        out += "\"k" + std::to_string(i) + "\":" + std::to_string(i) + ",";
    return out + extra + "}";
}

TEST(JsonValidator, AcceptsAndRejects)
{
    struct Case
    {
        std::string text;
        std::string error; ///< expected message substring; "" = valid
    };
    const std::vector<Case> cases = {
        {"{}", ""},
        {"[1,2.5,-3e4,\"x\",true,false,null]", ""},
        {"{\"a\":{\"b\":[{}]}}", ""},
        {"  {\"k\":\"\\u00e9\\n\"}  ", ""},
        {"-0", ""},
        {"1E+2", ""},
        {"\"\\\"\\\\\\/\\b\\f\\n\\r\\t\"", ""},

        {"", "unexpected end of input"},
        {"{", "expected object key"},
        {"{\"a\":}", "expected value"},
        {"{'a':1}", "expected object key"},
        {"{\"a\" 1}", "expected ':'"},
        {"{\"a\":1", "unterminated object"},
        {"[1", "unterminated array"},
        {"[1,]", "expected value"},
        {"[1 2]", "expected ',' or ']'"},
        {"{\"a\":1 \"b\":2}", "expected ',' or '}'"},
        {"{} extra", "trailing data"},

        // The number grammar: no leading zeros, no '+', digits on both
        // sides of '.' and after 'e'; no NaN or Infinity.
        {"{\"a\":01}", "expected ',' or '}'"},
        {"01", "trailing data"},
        {"+1", "expected value"},
        {".5", "expected value"},
        {"-", "expected value"},
        {"1.", "bad fraction"},
        {"1e", "bad exponent"},
        {"[2e]", "bad exponent"},
        {"[3-4]", "expected ',' or ']'"},
        {"0x10", "trailing data"},
        {"NaN", "expected value"},
        {"-Infinity", "expected value"},

        {std::string("[\"\x01\"]"), "raw control character in string"},
        {"\"\\x\"", "bad escape character"},
        {"\"\\u12G4\"", "bad \\u escape"},
        {"\"abc", "unterminated string"},
        {"\"\\", "unterminated escape"},
        {"tru", "expected 'true'"},
        {"nul", "expected 'null'"},

        // The depth limit, exactly and far past it (a stack bomb).
        {nested(kMaxDepth), ""},
        {nested(kMaxDepth + 1), "nesting deeper than 32 levels"},
        {nested(200000), "nesting deeper than 32 levels"},

        // A key may appear once per object, however it is spelled.
        {"{\"a\":1,\"a\":2}", "duplicate key 'a'"},
        {"{\"a\":1,\"\\u0061\":2}", "duplicate key 'a'"},
        {"{\"a\":{\"a\":1},\"b\":[{\"a\":1},{\"a\":2}]}", ""},
        {wideObject(100, "\"k0\":0"), "duplicate key 'k0'"},
        {wideObject(100, "\"k99\":0"), "duplicate key 'k99'"},
        {wideObject(100, "\"new\":0"), ""},
    };
    for (const Case &c : cases) {
        const std::string checked = validate(c.text);
        Document doc;
        const std::string parsed = parse(c.text, doc);
        EXPECT_EQ(checked, parsed) << "validate and parse disagree on: "
                                   << c.text.substr(0, 80);
        if (c.error.empty()) {
            EXPECT_EQ(checked, "") << c.text.substr(0, 80);
            continue;
        }
        EXPECT_NE(checked.find(c.error), std::string::npos)
            << c.text.substr(0, 80) << " -> " << checked;
        EXPECT_NE(checked.find(" at offset "), std::string::npos)
            << checked;
        EXPECT_EQ(doc.root.kind, Kind::Null);
    }
}

TEST(Json, ErrorsNameTheOffset)
{
    EXPECT_EQ(validate("{\"a\":1,\"a\":2}"), "duplicate key 'a' at offset 7");
    EXPECT_EQ(validate("[1,2] x"), "trailing data at offset 6");
}

TEST(Json, DocumentKeepsRawNumbersAndMemberOrder)
{
    Document doc;
    ASSERT_EQ(parse("{\"z\":18446744073709551615,\"a\":[1.50,\"x\\ty\","
                    "false],\"m\":{}}",
                    doc),
              "");
    const Value &root = doc.root;
    ASSERT_EQ(root.kind, Kind::Object);
    std::vector<std::string> keys;
    for (const Value &m : root.children)
        keys.emplace_back(m.key);
    EXPECT_EQ(keys, (std::vector<std::string>{"z", "a", "m"}));

    EXPECT_EQ(root.find("z")->text, "18446744073709551615");
    const Value *a = root.find("a");
    ASSERT_NE(a, nullptr);
    ASSERT_EQ(a->kind, Kind::Array);
    ASSERT_EQ(a->children.size(), 3u);
    EXPECT_EQ(a->children[0].text, "1.50");
    EXPECT_EQ(a->children[1].kind, Kind::String);
    EXPECT_EQ(a->children[1].text, "x\ty");
    EXPECT_EQ(a->children[2].kind, Kind::Bool);
    EXPECT_FALSE(a->children[2].boolean);
    EXPECT_TRUE(root.find("m")->children.empty());
    EXPECT_EQ(root.find("missing"), nullptr);
    EXPECT_EQ(a->find("z"), nullptr); // arrays have no members

    // The document owns what its values view.
    Document moved = std::move(doc);
    EXPECT_EQ(moved.root.find("a")->children[1].text, "x\ty");
}

TEST(Json, CheckedConversions)
{
    auto number = [](const std::string &text,
                     Document &doc) -> const Value & {
        EXPECT_EQ(parse(text, doc), "") << text;
        return doc.root;
    };
    Document doc;
    uint64_t u = 7;
    EXPECT_TRUE(toU64(number("0", doc), u));
    EXPECT_EQ(u, 0u);
    EXPECT_TRUE(toU64(number("18446744073709551615", doc), u));
    EXPECT_EQ(u, UINT64_MAX);
    for (const char *bad :
         {"-5", "1.5", "1e3", "18446744073709551616", "\"5\""}) {
        u = 7;
        EXPECT_FALSE(toU64(number(bad, doc), u)) << bad;
        EXPECT_EQ(u, 7u) << bad;
    }

    double d = 0.0;
    EXPECT_TRUE(toDouble(number("-3e4", doc), d));
    EXPECT_EQ(d, -30000.0);
    EXPECT_TRUE(toDouble(number("0.1", doc), d));
    EXPECT_EQ(d, 0.1);
    for (const char *bad : {"1e400", "-1e400", "true"}) {
        d = 5.0;
        EXPECT_FALSE(toDouble(number(bad, doc), d)) << bad;
        EXPECT_EQ(d, 5.0) << bad;
    }
}

TEST(Json, EscapeIsReadBackExactly)
{
    EXPECT_EQ(escape("a\"b\\c\n\t\r\x01"), "a\\\"b\\\\c\\n\\t\\r\\u0001");

    std::string every;
    for (int c = 0; c < 256; ++c)
        every += static_cast<char>(c);
    Document doc;
    ASSERT_EQ(parse("\"" + escape(every) + "\"", doc), "");
    EXPECT_EQ(doc.root.text, every);
}

} // namespace
} // namespace mg::json
