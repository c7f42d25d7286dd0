/**
 * @file
 * .sonicz — the lossless columnar telemetry container for sweep
 * records and fleet device telemetry (the genozip seg/piz idea applied
 * to this repo's rows: split records into per-field contexts, encode
 * each column with the codec that fits it, compress per block, verify
 * per-chunk checksums on read).
 *
 * Layout (all integers LEB128 varints unless sized):
 *
 *   header:  "SNCZ" magic, u8 version, u8 schema kind,
 *            column count, then per column: name, type byte
 *   block:   'B', row count, chunk count, then per column chunk:
 *            column index, codec byte (raw | lz), raw size,
 *            stored size, u64 FNV-1a checksum of the stored bytes,
 *            payload
 *   index:   (version >= 2) 'I', block count, then per block: byte
 *            offset, row count, min/max of column 0 (the device /
 *            plan index), u64 digest state after the block's chunks —
 *            then a u64 FNV-1a checksum of the index payload
 *   footer:  'E', total row count, u64 digest chaining (version >= 2)
 *            the header checksum, then every chunk checksum, then
 *            (version >= 2) the index checksum
 *            (truncation cannot look like clean EOF); version >= 2
 *            files end with the u64 byte offset of the index, so
 *            readers can seek to it without scanning the blocks
 *
 * Column contexts:
 *  - Str:  per-block dictionary in first-use order + code stream
 *          (net/impl/environment/pipeline/status names repeat
 *          constantly across a fleet - dictionary coding collapses
 *          them before LZ even runs)
 *  - Int:  zigzag(delta) varints (device indices become streams of
 *          1s, constant columns become streams of 0s)
 *  - F64:  raw little-endian bit patterns ("lossless" means the bit
 *          pattern, not a decimal rendering)
 * Every chunk is then LZ-compressed (telemetry/codec.hh) when that
 * wins, or stored raw when it does not.
 *
 * Each schema is an ordered list of names into its record's field
 * table (telemetry/fields.hh): the writer walks the table's getters,
 * the reader its setters, which reject a cell that does not fit its
 * member, naming the column, block and row. The sweep record's list
 * fields (a length column, then flattened value columns) are the
 * schema's own code. The schemas store exactly the fields the direct
 * CSV/JSON sinks print (derived rates are recomputed from bit-exact
 * stored fields), and those sinks walk the same tables, so sonic_cat
 * re-emission through them is byte-identical to a direct run. Schema
 * evolution: readers resolve columns by NAME (order-independent),
 * tolerate unknown columns a newer writer appended (their chunks are
 * checksum-verified and skipped), and error on a missing or
 * type-changed column this build needs. Version-1 files (no index)
 * still read via a full scan.
 */

#ifndef SONIC_TELEMETRY_SONICZ_HH
#define SONIC_TELEMETRY_SONICZ_HH

#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "app/engine.hh"
#include "fleet/fleet.hh"
#include "telemetry/codec.hh"
#include "telemetry/fields.hh"

namespace sonic::telemetry
{

/** Container format version this build writes. */
constexpr u32 kSoniczVersion = 2;

/** Oldest version this build still reads (scan fallback, no index). */
constexpr u32 kOldestReadableSoniczVersion = 1;

/** What one .sonicz file holds (one schema per file). */
enum class SchemaKind : u8
{
    Sweep = 1, ///< app::SweepRecord rows (the engine's CSV/JSON sinks)
    Fleet = 2, ///< fleet::DeviceTelemetry rows (the fleet CSV sink)
    Trace = 3  ///< trace::TraceRow events (the .sonictrace container)
};

/** The columns of a schema kind, in file order: the record's field
 * table resolved through the schema's name list (sonicz.cc), plus the
 * sweep schema's list columns. */
const std::vector<ColumnSpec> &schemaColumns(SchemaKind kind);

/**
 * One trace event row of a .sonictrace file (a .sonicz file with the
 * Trace schema). `kind` is a trace::TraceEventKind; `t` is device
 * wall time (live + dead seconds) and `energyJ` cumulative consumed
 * energy at the stamp, both offset to the device's fleet lifetime when
 * recorded by the fleet. `value`/`arg`/`label` are kind-specific.
 */
struct TraceRow
{
    u64 device = 0;
    u32 kind = 0;
    u32 arg = 0;
    f64 t = 0.0;
    f64 energyJ = 0.0;
    f64 value = 0.0;
    std::string label;
};

/** The trace row's field table: seven stored fields, all in the
 * .sonictrace schema. */
const FieldTable<TraceRow> &traceFields();

/**
 * Streaming .sonicz writer. Cells are appended column-wise per row
 * (every column exactly once per scalar, list columns length-first),
 * rows are closed with endRow(), and blocks of kRowsPerBlock rows are
 * encoded + flushed as they fill. finish() flushes the tail block, the
 * block index, and the footer; a file without its footer is rejected
 * by the reader as truncated.
 *
 * `extraColumns` appends columns after the schema's fixed list: put
 * their cells (column schemaColumns(kind).size() + i) before the
 * append*Row call that closes the row. This is the schema-evolution
 * hook: it writes the file a FUTURE build with a wider schema would
 * write, so tests can pin that today's reader tolerates it. The name
 * pointers must outlive the writer.
 */
class SoniczWriter
{
  public:
    static constexpr u32 kRowsPerBlock = 4096;

    SoniczWriter(std::ostream &os, SchemaKind kind,
                 const std::vector<ColumnSpec> &extraColumns = {},
                 u32 encoderThreads = 0);
    ~SoniczWriter();

    void putStr(u32 col, const std::string &value);
    void putInt(u32 col, u64 value);
    void putF64(u32 col, f64 value);
    void endRow();
    void finish();

    /** Column `col`'s cells of the open block, for the field-table
     * walk, whose getters append cells of the column's own type. */
    ColumnCells &cells(u32 col) { return columns_[col]; }

  private:
    struct Column : ColumnCells
    {
        ColType type;
    };

    /** One block's index entry, captured as the block is flushed. */
    struct IndexEntry
    {
        u64 offset = 0;  ///< byte offset of the block marker
        u64 rows = 0;
        u64 idMin = 0;   ///< min of column 0 (device / plan index)
        u64 idMax = 0;
        u64 digestAfter = 0; ///< chunk digest state after this block
    };

    struct EncodedBlock;
    struct Encoder;

    void flushBlock();
    void writeEncoded(const EncodedBlock &block);
    void drainEncoded(bool wait_for_all);

    std::ostream &os_;
    SchemaKind kind_;
    std::vector<Column> columns_;
    std::vector<IndexEntry> index_;
    u32 rowsInBlock_ = 0;
    u64 totalRows_ = 0;
    u64 bytesWritten_ = 0;
    u64 chunkDigest_ = 0xcbf29ce484222325ull;
    bool finished_ = false;

    /**
     * Background block-encoding state (null when encoderThreads == 0:
     * the serial path encodes and writes inline). Blocks are handed to
     * the encoder as their columns fill; flushBlock() drains finished
     * blocks opportunistically, finish() drains them all, and both
     * write strictly in sequence order.
     */
    std::unique_ptr<Encoder> encoder_;
};

/** @name Row appenders: every schema cell of one record, then
 * endRow(). The scalar cells come from the record's field table. */
/// @{
void appendSweepRow(SoniczWriter &writer,
                    const app::SweepRecord &record);
void appendFleetRow(SoniczWriter &writer,
                    const fleet::DeviceTelemetry &device);
void appendTraceRow(SoniczWriter &writer, const TraceRow &row);
/// @}

/** Reader-side file facts (sonic_cat --info). */
struct SoniczInfo
{
    SchemaKind kind = SchemaKind::Sweep;
    u32 version = 0;
    u64 rows = 0;
    u64 blocks = 0;
    u64 fileBytes = 0;
    /** Sum of raw (uncompressed) chunk bytes over DECODED blocks. */
    u64 rawBytes = 0;
    /** Sum of stored (compressed) chunk bytes over decoded blocks. */
    u64 storedBytes = 0;
    /** Whether the file carries a block index (version >= 2). */
    bool hasIndex = false;
    /** Blocks the index let the reader skip without decoding (their
     * rows still count toward `rows`; a read without a row range
     * always decodes — and checksum-verifies — every block). */
    u64 blocksSkipped = 0;
};

/**
 * Inclusive filter on column 0 (the device index of fleet telemetry,
 * the plan index of sweep records). A range is a PRUNING HINT: blocks
 * whose indexed [min, max] misses the range are skipped undecoded
 * (their declared digest keeps the footer chain verifiable), but a
 * partially-overlapping block still delivers all its rows — callers
 * keep their own row-level filter.
 */
struct RowRange
{
    u64 lo = 0;
    u64 hi = ~0ull;
};

/**
 * Read a .sonicz stream, invoking the schema-matching callback once
 * per row in file order. Either callback may be null (rows of that
 * schema are still validated and counted). Returns false with a
 * diagnostic on any malformed input: bad magic, unsupported version
 * or schema kind, a missing or type-changed schema column, per-chunk
 * checksum mismatch, codec errors, truncation, index/footer digest
 * mismatch, or column/row accounting that does not add up.
 */
bool readSonicz(std::istream &in,
                const std::function<void(const app::SweepRecord &)>
                    &onSweep,
                const std::function<void(const fleet::DeviceTelemetry &)>
                    &onFleet,
                SoniczInfo *info, std::string *error,
                const RowRange *range = nullptr);

/**
 * Read a TRACE .sonicz stream (.sonictrace), invoking onRow once per
 * event in file order. Errors on sweep/fleet files. Same validation
 * and range-pruning semantics as readSonicz (column 0 is the device
 * index, so a RowRange selects devices).
 */
bool readTraceRows(std::istream &in,
                   const std::function<void(const TraceRow &)> &onRow,
                   SoniczInfo *info, std::string *error,
                   const RowRange *range = nullptr);

/**
 * One row of a FLEET file as the columnar folds read it
 * (telemetry::aggregate, the planner's ingest), without materializing
 * a DeviceTelemetry: the counters are set through the fleet field
 * table, with the checks every reader makes, and the assignment cells
 * the folds group by are the block's decoded values. Valid only
 * inside the readFleetBlocks callback.
 */
struct FleetFoldRow
{
    const fleet::DeviceCounters &counters;
    u64 device;
    const std::string &net;
    const std::string &impl;
    /** env::EnvRef::label() of the stored env and capacitance, as the
     * live reduction groups by. */
    const std::string &envLabel;
    const std::string &pipeline;
};

/**
 * Read a FLEET .sonicz stream block-by-block, invoking onRow once per
 * row in file order. Errors on other schemas. Same validation and
 * range-pruning semantics as readSonicz.
 */
bool readFleetBlocks(std::istream &in,
                     const std::function<void(const FleetFoldRow &)>
                         &onRow,
                     SoniczInfo *info, std::string *error,
                     const RowRange *range = nullptr);

/**
 * A sink of base class `Base` writing records as .sonicz (open the
 * stream in binary mode). `encoderThreads` moves block encoding off
 * the emit path (byte-identical output; see SoniczWriter) — wire it to
 * the fleet's worker-thread count.
 */
template <typename Base, typename R, SchemaKind Kind,
          void (*Append)(SoniczWriter &, const R &)>
class SoniczSink : public Base
{
  public:
    explicit SoniczSink(std::ostream &os, u32 encoderThreads = 0)
        : writer_(os, Kind, {}, encoderThreads)
    {
    }

    void add(const R &record) override { Append(writer_, record); }
    void end() override { writer_.finish(); }

  private:
    SoniczWriter writer_;
};

using SoniczSweepSink = SoniczSink<app::ResultSink, app::SweepRecord,
                                   SchemaKind::Sweep, appendSweepRow>;
using SoniczFleetSink =
    SoniczSink<fleet::FleetSink, fleet::DeviceTelemetry,
               SchemaKind::Fleet, appendFleetRow>;

} // namespace sonic::telemetry

#endif // SONIC_TELEMETRY_SONICZ_HH
