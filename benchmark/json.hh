/**
 * @file
 * The small JSON subset the benchmark reads and writes: its own result
 * files, the last lines of its child runs, and BENCHMARK.json.
 */

#ifndef SOCFLOW_BENCH_JSON_HH
#define SOCFLOW_BENCH_JSON_HH

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace socflow_bench {
namespace json {

/** A parsed JSON value. Objects keep their key order. */
struct Value {
    enum class Kind { Null, Bool, Number, String, Array, Object };
    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<Value> array;
    std::vector<std::pair<std::string, Value>> object;

    /** Member `key` of an object, or nullptr. */
    const Value *find(std::string_view key) const;

    /** The number, or `fallback` when this is not a number. */
    double numberOr(double fallback) const;

    /** The string, or "" when this is not a string. */
    const std::string &str() const;
};

/** Parse one complete JSON document; nullopt on any syntax error. */
std::optional<Value> parse(std::string_view text);

/** Parse a whole file; nullopt when unreadable or malformed. */
std::optional<Value> parseFile(const std::string &path);

/** `s` as a quoted JSON string. */
std::string quote(std::string_view s);

/** A number with every significant digit; null when not finite. */
std::string number(double v);

} // namespace json
} // namespace socflow_bench

#endif // SOCFLOW_BENCH_JSON_HH
