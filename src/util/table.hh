/**
 * @file
 * ASCII table and CSV emitters used by the benchmark harnesses to print
 * the rows/series corresponding to each figure and table in the paper.
 */

#ifndef SONIC_UTIL_TABLE_HH
#define SONIC_UTIL_TABLE_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "util/types.hh"

namespace sonic
{

/**
 * Column-aligned ASCII table builder. Cells are strings; numeric helpers
 * format with fixed precision so benchmark output is diff-stable.
 */
class Table
{
  public:
    /** Create a table with the given column headers. */
    explicit Table(std::vector<std::string> headers);

    /** Begin a new row; subsequent cell() calls fill it left to right. */
    Table &row();

    /** Append a string cell to the current row. */
    Table &cell(const std::string &value);

    /** Append a formatted floating-point cell. */
    Table &cell(f64 value, int precision = 3);

    /** Append an integer cell. */
    Table &cell(u64 value);
    Table &cell(i64 value);
    Table &cell(int value) { return cell(static_cast<i64>(value)); }

    /** Render the table with aligned columns. */
    std::string str() const;

    /** Render as CSV (headers + rows). */
    std::string csv() const;

    /** Print the aligned rendering to the stream. */
    void print(std::ostream &os) const;

    /** Number of data rows so far. */
    u64 numRows() const { return rows_.size(); }

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/**
 * RFC 4180 CSV quoting: a field containing a comma, quote or newline
 * is wrapped in quotes with embedded quotes doubled. One
 * implementation for every CSV-emitting sink, so a quoting fix lands
 * everywhere at once (as json::Writer does for JSON, util/json.hh).
 */
inline std::string
csvQuote(const std::string &s)
{
    if (s.find_first_of(",\"\n\r") == std::string::npos)
        return s;
    std::string out = "\"";
    for (char c : s) {
        if (c == '"')
            out.push_back('"');
        out.push_back(c);
    }
    out.push_back('"');
    return out;
}

/** Format a double with the given precision (fixed notation). */
std::string formatFixed(f64 value, int precision = 3);

/** Format a double in engineering style with an SI suffix for Joules. */
std::string formatEnergy(f64 joules);

/** Format seconds with millisecond resolution. */
std::string formatSeconds(f64 seconds);

/** Render a horizontal ASCII bar of the given width fraction. */
std::string asciiBar(f64 fraction, u32 width = 40);

/** Section banner used by the bench binaries. */
std::string banner(const std::string &title);

} // namespace sonic

#endif // SONIC_UTIL_TABLE_HH
