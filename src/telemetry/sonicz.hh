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
 * The schemas store exactly the fields the direct CSV/JSON sinks
 * print (derived rates are recomputed from bit-exact stored fields),
 * so sonic_cat re-emission through those same sink classes is
 * byte-identical to a direct run. Schema evolution: readers resolve
 * columns by NAME (order-independent), tolerate unknown columns a
 * newer writer appended (their chunks are checksum-verified and
 * skipped), and error on a missing or type-changed column this build
 * needs. Version-1 files (no index) still read via a full scan.
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

/** Column value classes (the three context encoders). */
enum class ColType : u8
{
    Str = 0,
    Int = 1,
    F64 = 2
};

/** One schema column: a name (the resolution key) + type. */
struct ColumnSpec
{
    const char *name;
    ColType type;
    /** An F64 column that may hold +inf; readers reject every other
     * non-finite cell. */
    bool plusInfinity = false;
};

/** The fixed column list of a schema kind. */
const std::vector<ColumnSpec> &schemaColumns(SchemaKind kind);

/** kFleetColumns positions, for the columnar block accessors below
 * (kept in sync with the list in sonicz.cc by a static_assert). */
namespace fleetcol
{
enum : u32
{
    kDevice = 0,
    kNet,
    kImpl,
    kEnv,
    kEnvCap,
    kPipeline,
    kSeed,
    kStatus,
    kInferences,
    kReboots,
    kLiveSeconds,
    kDeadSeconds,
    kEnergyJ,
    kHarvestedJ,
    kResultsDelivered,
    kTxGaveUpRounds,
    kTxAttempts,
    kTxRetries,
    kRadioEnergyJ,
    kSenseEnergyJ,
    kTxBackoffSeconds,
    kInferenceSecondsSum,
    kDeliverySecondsSum,
    kColumnCount
};
} // namespace fleetcol

/** kTraceColumns positions (same sync contract as fleetcol). */
namespace tracecol
{
enum : u32
{
    kDevice = 0,
    kKind,
    kArg,
    kT,
    kEnergyJ,
    kValue,
    kLabel,
    kColumnCount
};
} // namespace tracecol

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

/**
 * Streaming .sonicz writer. Cells are appended column-wise per row
 * (every column exactly once per scalar, list columns length-first),
 * rows are closed with endRow(), and blocks of kRowsPerBlock rows are
 * encoded + flushed as they fill. finish() flushes the tail block, the
 * block index, and the footer; a file without its footer is rejected
 * by the reader as truncated.
 *
 * `extraColumns` appends columns after the schema's fixed list (cell
 * them by index kFleetColumns.size() + i, before endRow()). This is
 * the schema-evolution hook: it writes the file a FUTURE build with a
 * wider schema would write, so tests can pin that today's reader
 * tolerates it. The name pointers must outlive the writer.
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

    u64 rowsWritten() const { return totalRows_; }

  private:
    struct Column
    {
        ColType type;
        std::vector<std::string> strs;
        std::vector<u64> ints;
        std::vector<f64> f64s;
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

/** Append one sweep record as a .sonicz row. */
void appendSweepRow(SoniczWriter &writer,
                    const app::SweepRecord &record);

/** Append one fleet telemetry row (the runFleet-materialized view:
 * scalar fields and sums; per-round latency lists are not part of the
 * streamed telemetry — see fleet::FleetColumns). */
void appendFleetRow(SoniczWriter &writer,
                    const fleet::DeviceTelemetry &device);

/** The same standard cells WITHOUT closing the row — for writers
 * built with extraColumns: put the extra cells, then endRow(). */
void appendFleetCells(SoniczWriter &writer,
                      const fleet::DeviceTelemetry &device);

/** Append one trace event as a .sonictrace row. */
void appendTraceRow(SoniczWriter &writer, const TraceRow &row);

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
 * One decoded block of a FLEET file, exposed columnar: the reader's
 * decoded arrays by kFleetColumns position (see telemetry::fleetcol),
 * valid only inside the readFleetBlocks callback. This is how the
 * aggregator and the planner ingest a million-device file without
 * materializing a DeviceTelemetry per row.
 */
class FleetBlockView
{
  public:
    u64 rows() const { return rows_; }

    const std::string &
    str(u32 col, u64 row) const
    {
        return (*strCols_[col])[row];
    }

    u64
    intAt(u32 col, u64 row) const
    {
        return (*intCols_[col])[row];
    }

    f64
    f64At(u32 col, u64 row) const
    {
        return (*f64Cols_[col])[row];
    }

  private:
    friend struct FleetBlockViewAccess;

    u64 rows_ = 0;
    std::vector<const std::vector<std::string> *> strCols_;
    std::vector<const std::vector<u64> *> intCols_;
    std::vector<const std::vector<f64> *> f64Cols_;
};

/**
 * Read a FLEET .sonicz stream block-by-block (columnar, no row
 * materialization). Errors on sweep files. Same validation and
 * range-pruning semantics as readSonicz.
 */
bool readFleetBlocks(std::istream &in,
                     const std::function<void(const FleetBlockView &)>
                         &onBlock,
                     SoniczInfo *info, std::string *error,
                     const RowRange *range = nullptr);

/** Engine sink writing sweep records as .sonicz (open the stream in
 * binary mode). */
class SoniczSweepSink : public app::ResultSink
{
  public:
    explicit SoniczSweepSink(std::ostream &os, u32 encoderThreads = 0)
        : writer_(os, SchemaKind::Sweep, {}, encoderThreads)
    {
    }

    void add(const app::SweepRecord &record) override
    {
        appendSweepRow(writer_, record);
    }

    void end() override { writer_.finish(); }

  private:
    SoniczWriter writer_;
};

/** Fleet sink writing device telemetry as .sonicz. `encoderThreads`
 * moves block encoding off the emit path (byte-identical output; see
 * SoniczWriter) — wire it to the fleet's worker-thread count. */
class SoniczFleetSink : public fleet::FleetSink
{
  public:
    explicit SoniczFleetSink(std::ostream &os, u32 encoderThreads = 0)
        : writer_(os, SchemaKind::Fleet, {}, encoderThreads)
    {
    }

    void add(const fleet::DeviceTelemetry &device) override
    {
        appendFleetRow(writer_, device);
    }

    void end() override { writer_.finish(); }

  private:
    SoniczWriter writer_;
};

} // namespace sonic::telemetry

#endif // SONIC_TELEMETRY_SONICZ_HH
