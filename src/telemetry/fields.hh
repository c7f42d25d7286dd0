/**
 * @file
 * Field tables: each telemetry record type declares its fields once,
 * in one table (fleet::deviceFields, app::sweepFields,
 * telemetry::traceFields), and every format walks that table instead
 * of repeating the fields. A field has a name, a column type, a getter
 * and, unless it is derived from other fields, a setter that checks
 * the cell fits the member it fills.
 *
 * Each format prints an ordered list of names into the table, resolved
 * once per process (FieldTable::order): the CSV and JSON sinks below
 * (CsvSinkOf, JsonSinkOf) and the .sonicz schemas (telemetry/sonicz.cc).
 * Adding a field means one table row plus its name in each order that
 * prints it.
 *
 * Header-only, on util/ alone, so fleet/ and app/ include it without
 * an include cycle.
 */

#ifndef SONIC_TELEMETRY_FIELDS_HH
#define SONIC_TELEMETRY_FIELDS_HH

#include <functional>
#include <initializer_list>
#include <ostream>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/json.hh"
#include "util/logging.hh"
#include "util/table.hh"

namespace sonic::telemetry
{

/** Column value classes (the three .sonicz context encoders). */
enum class ColType : u8
{
    Str = 0,
    Int = 1,
    F64 = 2
};

/** One column: a name (the resolution key) + type. */
struct ColumnSpec
{
    const char *name;
    ColType type;
    /** An F64 column that may hold +inf; readers reject every other
     * non-finite cell. */
    bool plusInfinity = false;
};

/** The cells of one column, in the vector its type names: what a
 * getter appends to and a setter reads from. */
struct ColumnCells
{
    std::vector<std::string> strs;
    std::vector<u64> ints;
    std::vector<f64> f64s;

    void
    clear()
    {
        strs.clear();
        ints.clear();
        f64s.clear();
    }
};

template <typename T>
constexpr ColType
colTypeOf()
{
    if constexpr (std::is_convertible_v<T, std::string_view>)
        return ColType::Str;
    else if constexpr (std::is_floating_point_v<T>)
        return ColType::F64;
    else
        return ColType::Int;
}

template <typename T>
void
appendCell(ColumnCells &column, const T &value)
{
    if constexpr (std::is_convertible_v<T, std::string_view>)
        column.strs.emplace_back(value);
    else if constexpr (std::is_floating_point_v<T>)
        column.f64s.push_back(value);
    else
        column.ints.push_back(static_cast<u64>(value));
}

/** Store cell `i` of a column into a T (a string is moved out); false
 * when the value does not fit T (a bool takes 0 or 1; Int fields are
 * unsigned). */
template <typename T>
bool
takeCell(ColumnCells &column, u64 i, T *out)
{
    if constexpr (std::is_same_v<T, std::string>) {
        *out = std::move(column.strs[i]);
        return true;
    } else if constexpr (std::is_floating_point_v<T>) {
        *out = column.f64s[i];
        return true;
    } else if constexpr (std::is_same_v<T, bool>) {
        *out = column.ints[i] == 1;
        return column.ints[i] <= 1;
    } else {
        *out = static_cast<T>(column.ints[i]);
        return std::in_range<T>(column.ints[i]);
    }
}

/** One field of a record type R. */
template <typename R>
struct Field : ColumnSpec
{
    /** Append the record's cell to a column. */
    void (*get)(const R &, ColumnCells &) = nullptr;
    /** Store cell `i` of a column into the record; false when it does
     * not fit (an integer out of the member's range, an unknown name).
     * Null for a derived field. */
    bool (*set)(R &, ColumnCells &, u64 i) = nullptr;
};

/** A format's fields, in the order it prints them. */
template <typename R>
using FieldOrder = std::vector<const Field<R> *>;

/** A record type's field table, built once per process. */
template <typename R>
class FieldTable
{
  public:
    /** The member reached from R through the member pointers `Path`,
     * typed by that member. */
    template <auto... Path>
    FieldTable &
    stored(const char *name, bool plusInfinity = false)
    {
        using T = std::remove_cvref_t<decltype(
            (std::declval<R &>() .* ... .* Path))>;
        static_assert(std::is_floating_point_v<T> || !std::is_signed_v<T>,
                      "Int fields are unsigned");
        return add({{name, colTypeOf<T>(), plusInfinity},
                    [](const R &r, ColumnCells &col) {
                        appendCell(col, (r .* ... .* Path));
                    },
                    [](R &r, ColumnCells &col, u64 i) {
                        return takeCell(col, i, &(r .* ... .* Path));
                    }});
    }

    /** A member stored as its name: ToText(value) names it, and
     * FromText(name, &value) parses it back, false if unknown. */
    template <auto ToText, auto FromText, auto... Path>
    FieldTable &
    text(const char *name)
    {
        return add({{name, ColType::Str},
                    [](const R &r, ColumnCells &col) {
                        col.strs.emplace_back(ToText((r .* ... .* Path)));
                    },
                    [](R &r, ColumnCells &col, u64 i) {
                        return FromText(col.strs[i], &(r .* ... .* Path));
                    }});
    }

    /** A read-only field computed from the record (a member function
     * or a function of `const R &`). */
    template <auto Fn>
    FieldTable &
    derived(const char *name)
    {
        using T = std::remove_cvref_t<decltype(std::invoke(
            Fn, std::declval<const R &>()))>;
        return add({{name, colTypeOf<T>()},
                    [](const R &r, ColumnCells &col) {
                        appendCell(col, std::invoke(Fn, r));
                    }});
    }

    FieldTable &
    add(Field<R> field)
    {
        fields_.push_back(field);
        return *this;
    }

    /** The field called `name`, or null. */
    const Field<R> *
    find(std::string_view name) const
    {
        for (const auto &field : fields_)
            if (name == field.name)
                return &field;
        return nullptr;
    }

    /** Resolve a format's names in order; an unknown name is fatal. */
    FieldOrder<R>
    order(std::initializer_list<const char *> names) const
    {
        FieldOrder<R> out;
        for (const char *name : names)
            if (out.emplace_back(find(name)) == nullptr)
                fatal("format names unknown field '", name, "'");
        return out;
    }

  private:
    std::vector<Field<R>> fields_;
};

/**
 * A sink of base class `Base` (fleet::FleetSink, app::ResultSink)
 * streaming one CSV line per record, header first: strings csvQuote'd,
 * integers in decimal (Int fields are unsigned), f64s as fmtF64 text,
 * so a row recomputed from bit-exact fields reproduces byte for byte.
 * Each line reaches the stream in one write.
 */
template <typename Base, typename R, const FieldOrder<R> &(*Order)()>
class CsvSinkOf : public Base
{
  public:
    explicit CsvSinkOf(std::ostream &os) : os_(os) {}

    void
    begin(u64) override
    {
        std::string line;
        for (const auto *field : Order())
            line.append(line.empty() ? "" : ",").append(field->name);
        os_ << line << '\n';
    }

    void
    add(const R &record) override
    {
        std::string line;
        const char *separator = "";
        cells_.clear();
        for (const auto *field : Order()) {
            line += std::exchange(separator, ",");
            field->get(record, cells_);
            switch (field->type) {
              case ColType::Str: line += csvQuote(cells_.strs.back()); break;
              case ColType::Int:
                line += std::to_string(cells_.ints.back());
                break;
              case ColType::F64: line += fmtF64(cells_.f64s.back()); break;
            }
        }
        os_ << (line += '\n');
    }

  private:
    std::ostream &os_;
    ColumnCells cells_;
};

/** The same records as a JSON array of objects with the CSV's fields
 * and number text (a non-finite f64 is null). */
template <typename Base, typename R, const FieldOrder<R> &(*Order)()>
class JsonSinkOf : public Base
{
  public:
    explicit JsonSinkOf(std::ostream &os) : w_(os) {}

    void begin(u64) override { w_.beginArray(); }

    void
    add(const R &record) override
    {
        cells_.clear();
        w_.br(2).beginObject();
        for (const auto *field : Order()) {
            field->get(record, cells_);
            w_.key(field->name);
            switch (field->type) {
              case ColType::Str: w_.value(cells_.strs.back()); break;
              case ColType::Int: w_.value(cells_.ints.back()); break;
              case ColType::F64: w_.value(cells_.f64s.back()); break;
            }
        }
        w_.end();
    }

    void end() override { w_.br(0, /*evenEmpty=*/true).end(); }

  private:
    json::Writer w_;
    ColumnCells cells_;
};

} // namespace sonic::telemetry

#endif // SONIC_TELEMETRY_FIELDS_HH
