/**
 * @file
 * Machine-readable benchmark output.
 *
 * Every bench binary, alongside its human-readable tables, writes a
 * BENCH_<name>.json file so the performance trajectory can be tracked
 * across commits without parsing aligned text. A JsonReport collects
 * the bench's tables (one or more named sections) and serializes them
 * as an object of section → {columns, rows}, where each row maps
 * column name → cell. Cells that parse as numbers are emitted as JSON
 * numbers; everything else as strings.
 *
 * The output directory defaults to the working directory and can be
 * redirected with the CCN_JSON_DIR environment variable.
 */

#ifndef CCN_STATS_JSON_HH
#define CCN_STATS_JSON_HH

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "stats/table.hh"

namespace ccn::stats {

/** Escape a string for inclusion in a JSON document. */
inline std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (const char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

/**
 * True when @p s is a syntactically valid JSON number. strtod alone
 * is not enough: it also accepts "inf", "nan", hex floats, and a
 * leading '+', none of which are legal bare JSON tokens.
 */
inline bool
jsonNumberSyntax(const std::string &s)
{
    std::size_t i = 0;
    const std::size_t n = s.size();
    auto digits = [&] {
        std::size_t start = i;
        while (i < n && std::isdigit(static_cast<unsigned char>(s[i])))
            ++i;
        return i > start;
    };
    if (i < n && s[i] == '-')
        ++i;
    if (!digits())
        return false;
    if (i < n && s[i] == '.') {
        ++i;
        if (!digits())
            return false;
    }
    if (i < n && (s[i] == 'e' || s[i] == 'E')) {
        ++i;
        if (i < n && (s[i] == '+' || s[i] == '-'))
            ++i;
        if (!digits())
            return false;
    }
    return i == n;
}

/**
 * Emit a cell: as a bare number when it parses as one. Non-finite
 * values are quoted — "inf"/"nan" cells fail the syntax check, and a
 * token like "1e999" is a valid JSON *literal* but overflows every
 * consumer's double, so it is quoted too rather than round-tripping
 * as Infinity.
 */
inline std::string
jsonCell(const std::string &cell)
{
    if (!cell.empty() && jsonNumberSyntax(cell)) {
        char *end = nullptr;
        const double v = std::strtod(cell.c_str(), &end);
        if (end == cell.c_str() + cell.size() && std::isfinite(v))
            return cell;
    }
    std::string out = "\"";
    out += jsonEscape(cell);
    out += '"';
    return out;
}

/** Collects a bench run's tables and writes BENCH_<name>.json. */
class JsonReport
{
  public:
    explicit JsonReport(std::string bench_name)
        : name_(std::move(bench_name))
    {}

    /** Add a table under @p section. */
    void
    add(const std::string &section, const Table &t)
    {
        sections_.emplace_back(section, t);
    }

    /** Serialize the report (without writing it anywhere). */
    std::string
    str() const
    {
        std::string out = "{\n  \"bench\": \"";
        out += jsonEscape(name_);
        out += "\",\n  \"sections\": {";
        bool first_sec = true;
        for (const auto &[section, t] : sections_) {
            out += first_sec ? "\n" : ",\n";
            first_sec = false;
            out += "    \"";
            out += jsonEscape(section);
            out += "\": {\n      \"columns\": [";
            const auto &headers = t.headers();
            for (std::size_t c = 0; c < headers.size(); ++c) {
                out += c ? ", " : "";
                out += '"';
                out += jsonEscape(headers[c]);
                out += '"';
            }
            out += "],\n      \"rows\": [";
            const auto &rows = t.rows();
            for (std::size_t r = 0; r < rows.size(); ++r) {
                out += r ? ",\n        {" : "\n        {";
                for (std::size_t c = 0;
                     c < rows[r].size() && c < headers.size(); ++c) {
                    out += c ? ", " : "";
                    out += '"';
                    out += jsonEscape(headers[c]);
                    out += "\": ";
                    out += jsonCell(rows[r][c]);
                }
                out += "}";
            }
            out += rows.empty() ? "]\n    }" : "\n      ]\n    }";
        }
        out += "\n  }\n}\n";
        return out;
    }

    /**
     * Write BENCH_<name>.json into $CCN_JSON_DIR (or the working
     * directory). Returns the path written, empty on failure.
     */
    std::string
    write() const
    {
        std::string dir = ".";
        if (const char *env = std::getenv("CCN_JSON_DIR"))
            dir = env;
        const std::string path = dir + "/BENCH_" + name_ + ".json";
        std::ofstream f(path);
        if (!f) {
            std::cerr << "warning: cannot write " << path << "\n";
            return {};
        }
        f << str();
        return path;
    }

    /** Sections added so far, in insertion order. */
    const std::vector<std::pair<std::string, Table>> &
    sections() const
    {
        return sections_;
    }

  private:
    std::string name_;
    std::vector<std::pair<std::string, Table>> sections_;
};

} // namespace ccn::stats

#endif // CCN_STATS_JSON_HH
