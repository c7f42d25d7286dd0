#include "telemetry/sonicz.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <istream>
#include <map>
#include <mutex>
#include <ostream>
#include <thread>
#include <unordered_map>

#include "util/logging.hh"

namespace sonic::telemetry
{

// --- Schemas --------------------------------------------------------
//
// Each schema is its record's field table (telemetry/fields.hh)
// resolved through an ordered list of names. Column order is part of
// the writer's layout, but NOT of the read contract: since version 2,
// readers resolve columns by name, so a column list may grow at the
// end (or even reorder) without breaking old readers — they skip
// chunks of columns they do not know. List fields are a length column
// followed by flattened value columns; every row appends to every
// column of its schema exactly once per scalar and length-many times
// per list column.

namespace
{

/** A schema: its columns in file order and the table field behind
 * each (null for a list column, which the schema's own code fills). */
template <typename R>
struct Schema
{
    std::vector<ColumnSpec> columns;
    FieldOrder<R> fields;

    u32
    position(std::string_view name) const
    {
        for (u32 c = 0; c < columns.size(); ++c)
            if (name == columns[c].name)
                return c;
        fatal("sonicz schema has no column '", name, "'");
    }
};

/** Resolve `names` against `table`, then against `lists`. */
template <typename R>
Schema<R>
makeSchema(const FieldTable<R> &table,
           std::initializer_list<const char *> names,
           const std::vector<ColumnSpec> &lists = {})
{
    Schema<R> schema;
    for (const char *name : names) {
        const Field<R> *field = table.find(name);
        const ColumnSpec *spec = field;
        for (const auto &list : lists)
            if (spec == nullptr && name == std::string_view(list.name))
                spec = &list;
        if (spec == nullptr)
            fatal("sonicz schema names unknown column '", name, "'");
        schema.columns.push_back(*spec);
        schema.fields.push_back(field);
    }
    return schema;
}

const Schema<fleet::DeviceTelemetry> &
fleetSchema()
{
    static const auto schema = makeSchema(
        fleet::deviceFields(),
        {"device", "net", "impl", "env", "envCapFarads", "pipeline",
         "seed", "status", "inferences", "reboots", "liveSeconds",
         "deadSeconds", "energyJ", "harvestedJ", "resultsDelivered",
         "txGaveUpRounds", "txAttempts", "txRetries", "radioEnergyJ",
         "senseEnergyJ", "txBackoffSeconds", "inferenceSecondsSum",
         "deliverySecondsSum"});
    return schema;
}

const Schema<TraceRow> &
traceSchema()
{
    static const auto schema = makeSchema(
        traceFields(),
        {"device", "kind", "arg", "t", "energyJ", "value", "label"});
    return schema;
}

/** The sweep record's list columns: each list is a length column,
 * then its values. Sweep files written while sweeps had a
 * failure-schedule axis carry three more columns (its length, its
 * indices, how many fired); a reader skips them like any column it
 * does not know. */
const std::vector<ColumnSpec> kSweepListColumns = {
    {"rebootDigestLen", ColType::Int},
    {"rebootDigest", ColType::Int},
    {"layerLen", ColType::Int},
    {"layerName", ColType::Str},
    {"layerKernelSeconds", ColType::F64},
    {"layerControlSeconds", ColType::F64},
    {"layerEnergyJ", ColType::F64},
    {"opLen", ColType::Int},
    {"opName", ColType::Str},
    {"opEnergyJ", ColType::F64},
    {"logitLen", ColType::Int},
    {"logit", ColType::Int},
};

const Schema<app::SweepRecord> &
sweepSchema()
{
    static const auto schema = makeSchema(
        app::sweepFields(),
        {"planIndex", "net", "impl", "env", "envCapFarads", "profile",
         "sample", "seed", "status", "reboots", "tasksExecuted",
         "liveSeconds", "deadSeconds", "totalSeconds", "energyJ",
         "harvestedJ", "predictedClass", "tailsTileWords", "opInstances",
         "captureNvmDigests", "finalNvmDigest", "rebootDigestLen",
         "rebootDigest", "layerLen", "layerName", "layerKernelSeconds",
         "layerControlSeconds", "layerEnergyJ", "opLen", "opName",
         "opEnergyJ", "logitLen", "logit"},
        kSweepListColumns);
    return schema;
}

/** Positions of the sweep lists' length columns; each list's value
 * columns follow its length column. */
struct SweepLists
{
    u32 digests, layers, ops, logits;
};

const SweepLists &
sweepLists()
{
    const auto &s = sweepSchema();
    static const SweepLists lists{
        s.position("rebootDigestLen"), s.position("layerLen"),
        s.position("opLen"), s.position("logitLen")};
    return lists;
}

/**
 * A retired sweep column the reader still decodes. Sweep files written
 * while the supply had two selectors carry a power-system label here
 * (Continuous, 50mF, 1mF or 100uF). Its capacitors were the paper's RF
 * harvester, so they read back as rf-paper@<C> on rows whose env is
 * empty.
 */
const ColumnSpec kRetiredPowerColumn = {"power", ColType::Str};

constexpr u8 kBlockMarker = 0x42;  // 'B'
constexpr u8 kIndexMarker = 0x49;  // 'I'
constexpr u8 kFooterMarker = 0x45; // 'E'
constexpr u8 kCodecRaw = 0;
constexpr u8 kCodecLz = 1;
constexpr char kMagic[4] = {'S', 'N', 'C', 'Z'};
constexpr u64 kDigestBasis = 0xcbf29ce484222325ull;

void
putU64Le(Bytes &out, u64 value)
{
    for (u32 i = 0; i < 8; ++i)
        out.push_back(static_cast<u8>(value >> (8 * i)));
}

bool
getU64Le(const Bytes &bytes, u64 *pos, u64 *value)
{
    if (*pos + 8 > bytes.size())
        return false;
    u64 v = 0;
    for (u32 i = 0; i < 8; ++i)
        v |= static_cast<u64>(bytes[*pos + i]) << (8 * i);
    *pos += 8;
    *value = v;
    return true;
}

/** Fold 8 checksum bytes into a running FNV-1a digest. */
void
chainDigest(u64 *digest, u64 checksum)
{
    Bytes sum_bytes;
    putU64Le(sum_bytes, checksum);
    for (const u8 b : sum_bytes) {
        *digest ^= b;
        *digest *= 0x100000001b3ull;
    }
}

} // namespace

const FieldTable<TraceRow> &
traceFields()
{
    static const auto table =
        FieldTable<TraceRow>()
            .stored<&TraceRow::device>("device")
            .stored<&TraceRow::kind>("kind")
            .stored<&TraceRow::arg>("arg")
            .stored<&TraceRow::t>("t")
            .stored<&TraceRow::energyJ>("energyJ")
            // A lease from an unlimited supply grants +inf joules.
            .stored<&TraceRow::value>("value", /*plusInfinity=*/true)
            .stored<&TraceRow::label>("label");
    return table;
}

const std::vector<ColumnSpec> &
schemaColumns(SchemaKind kind)
{
    switch (kind) {
      case SchemaKind::Sweep: return sweepSchema().columns;
      case SchemaKind::Fleet: return fleetSchema().columns;
      case SchemaKind::Trace: return traceSchema().columns;
    }
    fatal("unknown schema kind ", static_cast<u32>(kind));
}

// --- Writer ---------------------------------------------------------

SoniczWriter::SoniczWriter(std::ostream &os, SchemaKind kind,
                           const std::vector<ColumnSpec> &extraColumns,
                           u32 encoderThreads)
    : os_(os), kind_(kind)
{
    const auto &base = schemaColumns(kind);
    std::vector<ColumnSpec> specs = base;
    specs.insert(specs.end(), extraColumns.begin(),
                 extraColumns.end());
    SONIC_ASSERT(specs[0].type == ColType::Int,
                 "sonicz column 0 must be the Int id column (it feeds "
                 "the block index)");
    columns_.resize(specs.size());
    for (u64 c = 0; c < specs.size(); ++c)
        columns_[c].type = specs[c].type;

    Bytes header(kMagic, kMagic + 4);
    header.push_back(static_cast<u8>(kSoniczVersion));
    header.push_back(static_cast<u8>(kind));
    putVarint(header, specs.size());
    for (const auto &spec : specs) {
        const std::string name = spec.name;
        putVarint(header, name.size());
        header.insert(header.end(), name.begin(), name.end());
        header.push_back(static_cast<u8>(spec.type));
    }
    os_.write(reinterpret_cast<const char *>(header.data()),
              static_cast<std::streamsize>(header.size()));
    bytesWritten_ = header.size();
    // The header leads the footer digest chain: without this, a name
    // byte of a column the reader does not know would be malleable
    // (an unknown name flipped is still unknown).
    chainDigest(&chunkDigest_,
                fnv1aBytes(header.data(), header.size()));
    if (encoderThreads > 0)
        encoder_ = std::make_unique<Encoder>(encoderThreads);
}

void
SoniczWriter::putStr(u32 col, const std::string &value)
{
    SONIC_ASSERT(columns_[col].type == ColType::Str,
                 "sonicz: string cell into a non-string column");
    columns_[col].strs.push_back(value);
}

void
SoniczWriter::putInt(u32 col, u64 value)
{
    SONIC_ASSERT(columns_[col].type == ColType::Int,
                 "sonicz: int cell into a non-int column");
    columns_[col].ints.push_back(value);
}

void
SoniczWriter::putF64(u32 col, f64 value)
{
    SONIC_ASSERT(columns_[col].type == ColType::F64,
                 "sonicz: f64 cell into a non-f64 column");
    columns_[col].f64s.push_back(value);
}

void
SoniczWriter::endRow()
{
    ++rowsInBlock_;
    ++totalRows_;
    if (rowsInBlock_ >= kRowsPerBlock)
        flushBlock();
}

namespace
{

Bytes
encodeIntColumn(const std::vector<u64> &values)
{
    Bytes raw;
    putVarint(raw, values.size());
    u64 prev = 0;
    for (const u64 v : values) {
        // Wrapping delta from the previous value, zigzagged: device
        // indices become 1s, constant columns 0s, and arbitrary u64s
        // (seeds, digests) still fit 10 varint bytes.
        putVarint(raw, zigzag(static_cast<i64>(v - prev)));
        prev = v;
    }
    return raw;
}

Bytes
encodeF64Column(const std::vector<f64> &values)
{
    Bytes raw;
    raw.reserve(values.size() * 8);
    for (const f64 v : values)
        putU64Le(raw, std::bit_cast<u64>(v));
    return raw;
}

Bytes
encodeStrColumn(const std::vector<std::string> &values)
{
    // Per-block dictionary in first-use order + code stream.
    std::unordered_map<std::string, u64> codes;
    std::vector<const std::string *> dict;
    Bytes code_stream;
    putVarint(code_stream, values.size());
    for (const auto &v : values) {
        auto [it, inserted] = codes.try_emplace(v, dict.size());
        if (inserted)
            dict.push_back(&it->first);
        putVarint(code_stream, it->second);
    }
    Bytes raw;
    putVarint(raw, dict.size());
    for (const auto *entry : dict) {
        putVarint(raw, entry->size());
        raw.insert(raw.end(), entry->begin(), entry->end());
    }
    raw.insert(raw.end(), code_stream.begin(), code_stream.end());
    return raw;
}

} // namespace

/** One block fully encoded but not yet written: its serialized bytes
 * plus the chunk checksums the writer chains into the footer digest
 * at WRITE time — the chain stays in block order no matter which
 * encoder thread finished first. */
struct SoniczWriter::EncodedBlock
{
    Bytes bytes;
    std::vector<u64> checksums; ///< per chunk, in column order
    u64 rows = 0;
    u64 idMin = 0;
    u64 idMax = 0;
};

/**
 * The background block-encoding pool. Encoding a block is a pure
 * function of its own column contents (every context — string
 * dictionary, int delta, LZ window — resets per block), so blocks
 * encode concurrently and the output stays byte-identical to serial
 * as long as writes happen in sequence order, which the owner thread
 * enforces through take().
 */
struct SoniczWriter::Encoder
{
    struct Job
    {
        u64 seq = 0;
        u64 rows = 0;
        std::vector<Column> columns;
    };

    explicit Encoder(u32 thread_count)
    {
        threads.reserve(thread_count);
        for (u32 i = 0; i < thread_count; ++i)
            threads.emplace_back([this] { workerLoop(); });
    }

    ~Encoder()
    {
        {
            std::lock_guard<std::mutex> lock(mutex);
            stop = true;
        }
        workCv.notify_all();
        for (auto &t : threads)
            t.join();
    }

    /** Serial encoding core (also the encoderThreads == 0 path). */
    static EncodedBlock encode(std::vector<Column> &&columns, u64 rows);

    void
    submit(Job &&job)
    {
        {
            std::lock_guard<std::mutex> lock(mutex);
            jobs.push_back(std::move(job));
        }
        workCv.notify_one();
    }

    /** Fetch block `seq` if encoded (blocking when `wait`). */
    bool
    take(u64 seq, bool wait, EncodedBlock *out)
    {
        std::unique_lock<std::mutex> lock(mutex);
        if (wait)
            doneCv.wait(lock,
                        [&] { return done.find(seq) != done.end(); });
        auto it = done.find(seq);
        if (it == done.end())
            return false;
        *out = std::move(it->second);
        done.erase(it);
        return true;
    }

    void
    workerLoop()
    {
        for (;;) {
            Job job;
            {
                std::unique_lock<std::mutex> lock(mutex);
                workCv.wait(lock,
                            [&] { return stop || !jobs.empty(); });
                if (jobs.empty())
                    return; // stop, and nothing left to encode
                job = std::move(jobs.front());
                jobs.pop_front();
            }
            EncodedBlock encoded =
                encode(std::move(job.columns), job.rows);
            {
                std::lock_guard<std::mutex> lock(mutex);
                done.emplace(job.seq, std::move(encoded));
            }
            doneCv.notify_all();
        }
    }

    std::mutex mutex;
    std::condition_variable workCv;
    std::condition_variable doneCv;
    std::deque<Job> jobs;
    std::map<u64, EncodedBlock> done;
    bool stop = false;
    std::vector<std::thread> threads;

    /** Owner-thread-only sequence counters (no lock needed). */
    u64 nextSeq = 0;      ///< next block sequence number to assign
    u64 pendingWrite = 0; ///< next block sequence number to write
};

// Out of line: ~Encoder joins the pool (and an unfinished writer may
// abandon encoded-but-unwritten blocks, exactly like the serial
// writer abandons its unflushed tail).
SoniczWriter::~SoniczWriter() = default;

SoniczWriter::EncodedBlock
SoniczWriter::Encoder::encode(std::vector<Column> &&columns, u64 rows)
{
    EncodedBlock out;
    out.rows = rows;
    // Column 0 is the scalar Int id column in every schema, so it has
    // exactly one value per row of this block.
    SONIC_ASSERT(columns[0].ints.size() == rows,
                 "sonicz: id column out of sync with the row count");
    const auto [lo, hi] = std::minmax_element(
        columns[0].ints.begin(), columns[0].ints.end());
    out.idMin = *lo;
    out.idMax = *hi;

    Bytes block;
    block.push_back(kBlockMarker);
    putVarint(block, rows);
    putVarint(block, columns.size());
    for (u64 c = 0; c < columns.size(); ++c) {
        auto &col = columns[c];
        Bytes raw;
        switch (col.type) {
          case ColType::Str: raw = encodeStrColumn(col.strs); break;
          case ColType::Int: raw = encodeIntColumn(col.ints); break;
          case ColType::F64: raw = encodeF64Column(col.f64s); break;
        }
        Bytes packed = lzCompress(raw);
        const bool use_lz = packed.size() < raw.size();
        const Bytes &payload = use_lz ? packed : raw;

        // The checksum covers the chunk header (column index, codec,
        // sizes) as well as the payload: a reader that SKIPS this
        // chunk (unknown column) never validates the header fields
        // any other way. Version 1 checksummed the payload alone.
        const u64 chunk_start = block.size();
        putVarint(block, c);
        block.push_back(use_lz ? kCodecLz : kCodecRaw);
        putVarint(block, raw.size());
        putVarint(block, payload.size());
        u64 checksum = fnv1aBytes(block.data() + chunk_start,
                                  block.size() - chunk_start);
        checksum = fnv1aBytes(payload.data(), payload.size(),
                              checksum);
        putU64Le(block, checksum);
        block.insert(block.end(), payload.begin(), payload.end());
        out.checksums.push_back(checksum);
    }
    out.bytes = std::move(block);
    return out;
}

void
SoniczWriter::writeEncoded(const EncodedBlock &encoded)
{
    IndexEntry entry;
    entry.offset = bytesWritten_;
    entry.rows = encoded.rows;
    entry.idMin = encoded.idMin;
    entry.idMax = encoded.idMax;
    os_.write(reinterpret_cast<const char *>(encoded.bytes.data()),
              static_cast<std::streamsize>(encoded.bytes.size()));
    bytesWritten_ += encoded.bytes.size();
    // Chain every chunk checksum into the footer digest, in block
    // order — this happens at write time, never on encoder threads.
    for (const u64 checksum : encoded.checksums)
        chainDigest(&chunkDigest_, checksum);
    entry.digestAfter = chunkDigest_;
    index_.push_back(entry);
}

void
SoniczWriter::drainEncoded(bool wait_for_all)
{
    if (encoder_ == nullptr)
        return;
    while (encoder_->pendingWrite < encoder_->nextSeq) {
        EncodedBlock encoded;
        if (!encoder_->take(encoder_->pendingWrite, wait_for_all,
                            &encoded))
            return; // not ready and not waiting — keep appending rows
        ++encoder_->pendingWrite;
        writeEncoded(encoded);
    }
}

void
SoniczWriter::flushBlock()
{
    if (rowsInBlock_ == 0)
        return;

    // Steal the filled column contents (the writer keeps appending
    // into fresh vectors of the same shape while encoders work).
    // The fresh vectors start at the stolen ones' sizes, so the next
    // block's appends do not regrow them.
    std::vector<Column> block_columns(columns_.size());
    for (u64 c = 0; c < columns_.size(); ++c) {
        auto &col = columns_[c];
        block_columns[c].type = col.type;
        block_columns[c].strs.swap(col.strs);
        block_columns[c].ints.swap(col.ints);
        block_columns[c].f64s.swap(col.f64s);
        col.strs.reserve(block_columns[c].strs.size());
        col.ints.reserve(block_columns[c].ints.size());
        col.f64s.reserve(block_columns[c].f64s.size());
    }
    const u64 rows = rowsInBlock_;
    rowsInBlock_ = 0;

    if (encoder_ == nullptr) {
        writeEncoded(Encoder::encode(std::move(block_columns), rows));
        return;
    }
    encoder_->submit({encoder_->nextSeq++, rows,
                      std::move(block_columns)});
    // Opportunistically write whatever finished, without stalling the
    // append path behind a still-encoding block.
    drainEncoded(false);
}

void
SoniczWriter::finish()
{
    if (finished_)
        return;
    flushBlock();
    drainEncoded(true);

    // Block index: per-block offsets, row counts, column-0 ranges and
    // digest states, self-checksummed so a skipping reader can trust
    // the entries it navigates by.
    const u64 index_offset = bytesWritten_;
    Bytes index;
    index.push_back(kIndexMarker);
    putVarint(index, index_.size());
    for (const auto &entry : index_) {
        putVarint(index, entry.offset);
        putVarint(index, entry.rows);
        putVarint(index, entry.idMin);
        putVarint(index, entry.idMax);
        putU64Le(index, entry.digestAfter);
    }
    const u64 index_checksum =
        fnv1aBytes(index.data() + 1, index.size() - 1);
    putU64Le(index, index_checksum);
    chainDigest(&chunkDigest_, index_checksum);
    os_.write(reinterpret_cast<const char *>(index.data()),
              static_cast<std::streamsize>(index.size()));
    bytesWritten_ += index.size();

    Bytes footer;
    footer.push_back(kFooterMarker);
    putVarint(footer, totalRows_);
    putU64Le(footer, chunkDigest_);
    // The file's final 8 bytes locate the index, so readers seek to it
    // directly instead of scanning the blocks to find it.
    putU64Le(footer, index_offset);
    os_.write(reinterpret_cast<const char *>(footer.data()),
              static_cast<std::streamsize>(footer.size()));
    bytesWritten_ += footer.size();
    os_.flush();
    finished_ = true;
}

// --- Row appenders --------------------------------------------------

namespace
{

/** Every schema column that has a table field, from its getter. */
template <typename R>
void
putFields(SoniczWriter &w, const Schema<R> &schema, const R &record)
{
    for (u32 c = 0; c < schema.fields.size(); ++c)
        if (const Field<R> *field = schema.fields[c])
            field->get(record, w.cells(c));
}

} // namespace

void
appendSweepRow(SoniczWriter &w, const app::SweepRecord &record)
{
    putFields(w, sweepSchema(), record);
    const auto &at = sweepLists();
    const auto &r = record.result;
    w.putInt(at.digests, r.rebootDigests.size());
    for (const u64 digest : r.rebootDigests)
        w.putInt(at.digests + 1, digest);
    w.putInt(at.layers, r.layers.size());
    for (const auto &layer : r.layers) {
        w.putStr(at.layers + 1, layer.name);
        w.putF64(at.layers + 2, layer.kernelSeconds);
        w.putF64(at.layers + 3, layer.controlSeconds);
        w.putF64(at.layers + 4, layer.energyJ);
    }
    w.putInt(at.ops, r.energyByOp.size());
    for (const auto &[op, joules] : r.energyByOp) {
        w.putStr(at.ops + 1, op);
        w.putF64(at.ops + 2, joules);
    }
    w.putInt(at.logits, r.logits.size());
    for (const i16 logit : r.logits)
        w.putInt(at.logits + 1, static_cast<u64>(static_cast<i64>(logit)));
    w.endRow();
}

void
appendFleetRow(SoniczWriter &w, const fleet::DeviceTelemetry &t)
{
    putFields(w, fleetSchema(), t);
    w.endRow();
}

void
appendTraceRow(SoniczWriter &w, const TraceRow &row)
{
    putFields(w, traceSchema(), row);
    w.endRow();
}

// --- Reader ---------------------------------------------------------

namespace
{

/** Decoded column values of one block plus the read cursor. */
struct DecodedColumn : ColumnCells
{
    ColType type = ColType::Int;
    u64 cursor = 0;

    /** Only the vector of the column's type holds cells. */
    u64 size() const { return strs.size() + ints.size() + f64s.size(); }
};

/** One decoded block: its columns by build position, plus the row
 * materializers' sticky error. */
struct BlockReader
{
    explicit BlockReader(const std::vector<ColumnSpec> &known)
        : specs(known), columns(known.size())
    {
    }

    const std::vector<ColumnSpec> &specs;
    std::vector<DecodedColumn> columns;
    std::string error;

    bool
    fail(const std::string &message)
    {
        if (error.empty())
            error = message;
        return false;
    }

    /** The position of column `col`'s next cell, advancing its cursor;
     * false, with the error set, once the column runs out. */
    bool
    next(u32 col, u64 *i)
    {
        auto &c = columns[col];
        if (c.cursor >= c.size())
            return fail(std::string("column '") + specs[col].name
                        + "' ran out of cells mid-row");
        *i = c.cursor++;
        return true;
    }

    /** Move column `col`'s next cell into `out`; false, with the error
     * set, once the column runs out. */
    template <typename T>
    bool
    take(u32 col, T *out)
    {
        u64 i = 0;
        return next(col, &i) && takeCell(columns[col], i, out);
    }

    /** Store cell `i` of column `col` into `field` of `record`; the
     * error names the column and the value that does not fit. */
    template <typename R>
    bool
    set(const Field<R> &field, R &record, u32 col, u64 i)
    {
        auto &c = columns[col];
        return field.set(record, c, i)
            || fail(std::string("column '") + field.name + "': "
                    + (field.type == ColType::Str
                           ? "unknown value '" + c.strs[i] + "'"
                           : "value " + std::to_string(c.ints[i])
                               + " is out of range"));
    }
};

bool
decodeIntColumn(const Bytes &raw, std::vector<u64> *out)
{
    u64 pos = 0;
    u64 count = 0;
    if (!getVarint(raw, &pos, &count))
        return false;
    if (count > raw.size()) // each value is >= 1 byte
        return false;
    out->reserve(count);
    u64 prev = 0;
    for (u64 i = 0; i < count; ++i) {
        u64 z = 0;
        if (!getVarint(raw, &pos, &z))
            return false;
        prev += static_cast<u64>(unzigzag(z));
        out->push_back(prev);
    }
    return pos == raw.size();
}

/** Fails on NaN and on an infinity, bar +inf where `plusInfinity`: no
 * writer stores one, and summaries and JSON could not carry it. */
bool
decodeF64Column(const Bytes &raw, std::vector<f64> *out,
                bool plusInfinity)
{
    if (raw.size() % 8 != 0)
        return false;
    u64 pos = 0;
    out->reserve(raw.size() / 8);
    while (pos < raw.size()) {
        u64 bits = 0;
        if (!getU64Le(raw, &pos, &bits))
            return false;
        const f64 value = std::bit_cast<f64>(bits);
        if (!std::isfinite(value) && !(plusInfinity && value > 0.0))
            return false;
        out->push_back(value);
    }
    return true;
}

bool
decodeStrColumn(const Bytes &raw, std::vector<std::string> *out)
{
    u64 pos = 0;
    u64 dict_size = 0;
    if (!getVarint(raw, &pos, &dict_size))
        return false;
    if (dict_size > raw.size())
        return false;
    std::vector<std::string> dict;
    dict.reserve(dict_size);
    for (u64 i = 0; i < dict_size; ++i) {
        u64 len = 0;
        if (!getVarint(raw, &pos, &len))
            return false;
        if (pos + len > raw.size())
            return false;
        dict.emplace_back(
            reinterpret_cast<const char *>(raw.data() + pos),
            len);
        pos += len;
    }
    u64 count = 0;
    if (!getVarint(raw, &pos, &count))
        return false;
    if (count > raw.size())
        return false;
    out->reserve(count);
    for (u64 i = 0; i < count; ++i) {
        u64 code = 0;
        if (!getVarint(raw, &pos, &code))
            return false;
        if (code >= dict.size())
            return false;
        out->push_back(dict[code]);
    }
    return pos == raw.size();
}

/** One row's stored fields through `schema`, in column order. */
template <typename R>
bool
takeFields(BlockReader &b, const Schema<R> &schema, R *out)
{
    *out = R{};
    u64 i = 0;
    for (u32 c = 0; c < schema.fields.size(); ++c) {
        const Field<R> *field = schema.fields[c];
        if (field != nullptr && field->set != nullptr
            && !(b.next(c, &i) && b.set(*field, *out, c, i)))
            return false;
    }
    return true;
}

/**
 * One sweep row: the scalar walk, then the list columns. `legacy_power`:
 * the file carries kRetiredPowerColumn, decoded into the slot just past
 * the schema.
 */
bool
takeSweepRow(BlockReader &b, app::SweepRecord *out, bool legacy_power)
{
    if (!takeFields(b, sweepSchema(), out))
        return false;
    auto &spec = out->spec;
    auto &r = out->result;
    std::string s;
    if (legacy_power && b.take(sweepSchema().columns.size(), &s)) {
        const f64 farads = s == "50mF" ? 50e-3
                         : s == "1mF"  ? 1e-3
                         : s == "100uF" ? 100e-6
                                        : 0.0;
        if (farads == 0.0 && s != "Continuous")
            return b.fail("unknown power kind '" + s + "'");
        // The environment took precedence over the power kind.
        if (farads > 0.0 && spec.environment.empty())
            spec.environment = {"rf-paper", farads};
    }

    // A list's length cell, bounded by the cells its first value
    // column still holds (a corrupt length must not size a vector).
    const auto &at = sweepLists();
    const auto list = [&b](u32 col) -> u64 {
        u64 n = 0;
        const auto &values = b.columns[col + 1];
        if (!b.take(col, &n) || n <= values.size() - values.cursor)
            return n;
        b.fail(std::string("column '") + b.specs[col].name
               + "' declares more values than the block holds");
        return 0;
    };
    r.rebootDigests.resize(list(at.digests));
    for (u64 &digest : r.rebootDigests)
        b.take(at.digests + 1, &digest);
    r.layers.resize(list(at.layers));
    for (auto &layer : r.layers) {
        b.take(at.layers + 1, &layer.name);
        b.take(at.layers + 2, &layer.kernelSeconds);
        b.take(at.layers + 3, &layer.controlSeconds);
        b.take(at.layers + 4, &layer.energyJ);
    }
    for (u64 n = list(at.ops); n > 0 && b.take(at.ops + 1, &s); --n)
        b.take(at.ops + 2, &r.energyByOp[s]);
    r.logits.resize(list(at.logits));
    for (i16 &logit : r.logits) {
        u64 bits = 0;
        b.take(at.logits + 1, &bits);
        const i64 value = static_cast<i64>(bits);
        if (!std::in_range<i16>(value))
            return b.fail("column 'logit': value " + std::to_string(value)
                          + " is out of range");
        logit = static_cast<i16>(value);
    }
    return b.error.empty();
}

/** Environment labels by (env, capacitance bits): EnvRef::label()
 * formats the capacitance through a stream, which cost a fold more
 * than the rest of a row. */
using EnvLabels = std::map<std::pair<std::string, u64>, std::string>;

/** Row `row` of a fleet block to a fold: the group-key columns are
 * read in place, and every other field goes through the fleet table
 * into `scratch` (its strings and kernel stay unset). */
bool
foldFleetRow(BlockReader &b, u64 row, fleet::DeviceTelemetry &scratch,
             EnvLabels &labels,
             const std::function<void(const FleetFoldRow &)> &onRow)
{
    const auto &schema = fleetSchema();
    static const u32 net = schema.position("net"),
                     impl = schema.position("impl"),
                     env = schema.position("env"),
                     pipeline = schema.position("pipeline");
    for (u32 c = 0; c < schema.fields.size(); ++c)
        if (c != net && c != impl && c != env && c != pipeline
            && !b.set(*schema.fields[c], scratch, c, row))
            return false;
    const auto key = [&](u32 c) -> auto & { return b.columns[c].strs[row]; };
    const auto &a = scratch.assignment;
    const f64 farads = a.environment.capacitanceFarads;
    auto [label, fresh] =
        labels.try_emplace({key(env), std::bit_cast<u64>(farads)});
    if (fresh)
        label->second = env::EnvRef{key(env), farads}.label();
    onRow({scratch, a.deviceIndex, key(net), key(impl), label->second,
           key(pipeline)});
    return true;
}

/** One column as the file declares it, resolved against this build's
 * schema by name (kUnknownCol = a column this build does not know). */
constexpr u64 kUnknownCol = ~0ull;

struct FileColumn
{
    std::string name;
    ColType type = ColType::Int;
    u64 buildCol = kUnknownCol;
};

/** A version-2 index entry as read back. */
struct IndexEntry
{
    u64 offset = 0;
    u64 rows = 0;
    u64 idMin = 0;
    u64 idMax = 0;
    u64 digestAfter = 0;
};

/**
 * The shared reader core: row callbacks, or the fleet fold's. Handles
 * version 1 (full scan, exact layout) and version 2 (by-name column
 * resolution, unknown-column skipping, index-guided block pruning
 * under a RowRange).
 */
bool
readSoniczImpl(std::istream &in,
               const std::function<void(const app::SweepRecord &)>
                   &onSweep,
               const std::function<void(const fleet::DeviceTelemetry &)>
                   &onFleet,
               const std::function<void(const FleetFoldRow &)> &onFold,
               const std::function<void(const TraceRow &)> &onTrace,
               SoniczInfo *info, std::string *error,
               const RowRange *range)
{
    std::string scratch;
    std::string &err = error != nullptr ? *error : scratch;
    const auto fail = [&err](const std::string &message) {
        err = "sonicz: " + message;
        return false;
    };

    Bytes bytes;
    {
        char buf[1 << 16];
        while (in.read(buf, sizeof buf) || in.gcount() > 0)
            bytes.insert(bytes.end(), buf, buf + in.gcount());
    }

    u64 pos = 0;
    if (bytes.size() < 6 || std::memcmp(bytes.data(), kMagic, 4) != 0)
        return fail("not a .sonicz file (bad magic)");
    pos = 4;
    const u8 version = bytes[pos++];
    if (version < kOldestReadableSoniczVersion
        || version > kSoniczVersion)
        return fail("unsupported format version "
                    + std::to_string(version)
                    + " (this build reads versions "
                    + std::to_string(kOldestReadableSoniczVersion)
                    + ".." + std::to_string(kSoniczVersion) + ")");
    const u8 kind_byte = bytes[pos++];
    if (kind_byte != static_cast<u8>(SchemaKind::Sweep)
        && kind_byte != static_cast<u8>(SchemaKind::Fleet)
        && kind_byte != static_cast<u8>(SchemaKind::Trace))
        return fail("unknown schema kind "
                    + std::to_string(kind_byte));
    const SchemaKind kind = static_cast<SchemaKind>(kind_byte);
    const auto &specs = schemaColumns(kind);
    // The columns this build decodes: the schema, then the retired
    // ones older writers of this kind still carry.
    std::vector<ColumnSpec> known = specs;
    if (kind == SchemaKind::Sweep)
        known.push_back(kRetiredPowerColumn);
    if (onFold && kind != SchemaKind::Fleet)
        return fail("columnar fleet reads apply to fleet telemetry; "
                    "this is not a fleet file");
    if (onTrace && kind != SchemaKind::Trace)
        return fail("trace row reads apply to .sonictrace files; "
                    "this is not a trace file");

    // Resolve the file's columns against this build's schema by NAME:
    // unknown columns (a newer writer's additions) are tolerated and
    // skipped; a missing or type-changed build column is an error.
    u64 column_count = 0;
    if (!getVarint(bytes, &pos, &column_count))
        return fail("truncated header");
    if (column_count > bytes.size())
        return fail("truncated header");
    std::vector<FileColumn> file_cols(column_count);
    std::vector<u64> build_to_file(known.size(), kUnknownCol);
    for (u64 c = 0; c < column_count; ++c) {
        u64 name_len = 0;
        if (!getVarint(bytes, &pos, &name_len)
            || pos + name_len + 1 > bytes.size())
            return fail("truncated header");
        auto &fc = file_cols[c];
        fc.name.assign(
            reinterpret_cast<const char *>(bytes.data() + pos),
            name_len);
        pos += name_len;
        const u8 type = bytes[pos++];
        if (type > static_cast<u8>(ColType::F64))
            return fail("column '" + fc.name
                        + "' has unknown type "
                        + std::to_string(type));
        fc.type = static_cast<ColType>(type);
        for (u64 b = 0; b < known.size(); ++b) {
            if (fc.name != known[b].name)
                continue;
            if (build_to_file[b] != kUnknownCol)
                return fail("duplicate column '" + fc.name + "'");
            if (fc.type != known[b].type)
                return fail("column '" + fc.name
                            + "' changed type; this build cannot "
                              "read it");
            fc.buildCol = b;
            build_to_file[b] = c;
            break;
        }
    }
    for (u64 b = 0; b < specs.size(); ++b)
        if (build_to_file[b] == kUnknownCol)
            return fail("missing column '"
                        + std::string(specs[b].name)
                        + "' (this build needs it)");
    const bool legacy_power = known.size() > specs.size()
        && build_to_file[specs.size()] != kUnknownCol;

    SoniczInfo local_info;
    SoniczInfo &out_info = info != nullptr ? *info : local_info;
    out_info = SoniczInfo{};
    out_info.kind = kind;
    out_info.version = version;
    out_info.fileBytes = bytes.size();
    out_info.hasIndex = version >= 2;

    // Version >= 2: locate and validate the block index up front (the
    // file's final 8 bytes point at it), so the block walk below can
    // navigate by it.
    std::vector<IndexEntry> index;
    u64 index_offset = 0;
    u64 index_checksum = 0;
    u64 footer_pos = 0;
    const u64 header_end = pos;
    if (version >= 2) {
        if (bytes.size() < header_end + 8)
            return fail("truncated file (no index trailer)");
        u64 tail_pos = bytes.size() - 8;
        u64 declared_offset = 0;
        {
            u64 p = tail_pos;
            getU64Le(bytes, &p, &declared_offset);
        }
        if (declared_offset < header_end || declared_offset >= tail_pos
            || bytes[declared_offset] != kIndexMarker)
            return fail("bad index offset trailer (truncated or "
                        "corrupted file)");
        index_offset = declared_offset;
        u64 p = index_offset + 1;
        u64 entry_count = 0;
        if (!getVarint(bytes, &p, &entry_count))
            return fail("truncated index");
        if (entry_count > bytes.size())
            return fail("truncated index");
        index.resize(entry_count);
        u64 prev_offset = 0;
        for (u64 i = 0; i < entry_count; ++i) {
            auto &e = index[i];
            if (!getVarint(bytes, &p, &e.offset)
                || !getVarint(bytes, &p, &e.rows)
                || !getVarint(bytes, &p, &e.idMin)
                || !getVarint(bytes, &p, &e.idMax)
                || !getU64Le(bytes, &p, &e.digestAfter))
                return fail("truncated index");
            if (e.idMin > e.idMax
                || (i == 0 ? e.offset != header_end
                           : e.offset <= prev_offset)
                || e.offset >= index_offset)
                return fail("index entry " + std::to_string(i)
                            + " is inconsistent");
            prev_offset = e.offset;
        }
        if (p > bytes.size() - 8)
            return fail("truncated index");
        index_checksum = fnv1aBytes(bytes.data() + index_offset + 1,
                                    p - (index_offset + 1));
        u64 declared_checksum = 0;
        if (!getU64Le(bytes, &p, &declared_checksum))
            return fail("truncated index");
        if (declared_checksum != index_checksum)
            return fail("index checksum mismatch (corrupted index)");
        footer_pos = p;
    }

    u64 chunk_digest = kDigestBasis;
    // Version >= 2 chains the header checksum first, covering column
    // names the resolution loop above could not miss on its own
    // (unknown-column names in particular).
    if (version >= 2)
        chainDigest(&chunk_digest,
                    fnv1aBytes(bytes.data(), header_end));
    app::SweepRecord sweep_row;
    fleet::DeviceTelemetry fleet_row;
    TraceRow trace_row;
    EnvLabels env_labels;

    // Decode the block at *cursor (which must point at its marker),
    // dispatch its rows or its columnar view, and advance the cursor.
    const auto read_block = [&](u64 *cursor) -> bool {
        u64 bpos = *cursor;
        const u64 block_index = out_info.blocks;
        if (bpos >= bytes.size() || bytes[bpos] != kBlockMarker)
            return fail("unknown block marker at byte "
                        + std::to_string(bpos));
        ++bpos;
        u64 row_count = 0;
        u64 chunk_count = 0;
        if (!getVarint(bytes, &bpos, &row_count)
            || !getVarint(bytes, &bpos, &chunk_count))
            return fail("truncated block header");
        if (chunk_count != file_cols.size())
            return fail("block " + std::to_string(block_index)
                        + " has " + std::to_string(chunk_count)
                        + " chunks, expected "
                        + std::to_string(file_cols.size()));

        BlockReader block(known);
        for (u64 k = 0; k < chunk_count; ++k) {
            const u64 chunk_start = bpos;
            u64 col = 0;
            if (!getVarint(bytes, &bpos, &col))
                return fail("truncated chunk header");
            if (col >= file_cols.size())
                return fail("chunk names column "
                            + std::to_string(col)
                            + " which the file header does not "
                              "declare");
            const auto &fc = file_cols[col];
            if (bpos >= bytes.size())
                return fail("truncated chunk header");
            const u8 codec = bytes[bpos++];
            u64 raw_size = 0, stored_size = 0, checksum = 0;
            if (!getVarint(bytes, &bpos, &raw_size)
                || !getVarint(bytes, &bpos, &stored_size))
                return fail("truncated chunk header");
            const u64 checksum_pos = bpos;
            if (!getU64Le(bytes, &bpos, &checksum))
                return fail("truncated chunk header");
            if (bpos + stored_size > bytes.size())
                return fail("truncated chunk payload (block "
                            + std::to_string(block_index)
                            + ", column '" + fc.name + "')");
            const u8 *payload = bytes.data() + bpos;
            bpos += stored_size;

            // Version >= 2 checksums the chunk header bytes too; a
            // skipped (unknown-column) chunk has no other validation
            // of its codec and size fields. Version 1 covered the
            // payload alone.
            u64 computed;
            if (version >= 2) {
                computed = fnv1aBytes(bytes.data() + chunk_start,
                                      checksum_pos - chunk_start);
                computed =
                    fnv1aBytes(payload, stored_size, computed);
            } else {
                computed = fnv1aBytes(payload, stored_size);
            }
            if (computed != checksum)
                return fail("checksum mismatch in block "
                            + std::to_string(block_index)
                            + ", column '" + fc.name
                            + "' (corrupted payload)");
            chainDigest(&chunk_digest, checksum);
            out_info.rawBytes += raw_size;
            out_info.storedBytes += stored_size;

            // A column this build does not know: its chunk is
            // checksum-verified and digest-chained above, then
            // skipped — that IS the schema-evolution contract.
            if (fc.buildCol == kUnknownCol)
                continue;

            Bytes raw;
            if (codec == kCodecRaw) {
                if (stored_size != raw_size)
                    return fail("raw chunk size mismatch (block "
                                + std::to_string(block_index)
                                + ", column '" + fc.name + "')");
                raw.assign(payload, payload + stored_size);
            } else if (codec == kCodecLz) {
                Bytes stored(payload, payload + stored_size);
                if (!lzDecompress(stored, raw_size, &raw))
                    return fail("LZ decode failed in block "
                                + std::to_string(block_index)
                                + ", column '" + fc.name + "'");
            } else {
                return fail("unknown codec "
                            + std::to_string(codec));
            }

            auto &decoded = block.columns[fc.buildCol];
            decoded.type = fc.type;
            bool ok = false;
            switch (decoded.type) {
              case ColType::Str:
                ok = decodeStrColumn(raw, &decoded.strs);
                break;
              case ColType::Int:
                ok = decodeIntColumn(raw, &decoded.ints);
                break;
              case ColType::F64:
                ok = decodeF64Column(raw, &decoded.f64s,
                                     known[fc.buildCol].plusInfinity);
                break;
            }
            if (!ok)
                return fail("column decode failed in block "
                            + std::to_string(block_index)
                            + ", column '" + fc.name + "'");
        }

        // A fold reads the all-scalar fleet schema by row index, so
        // every column must hold exactly one value per row; row reads
        // consume through each column's cursor and must use them up.
        for (u64 c = 0; onFold && c < block.columns.size(); ++c)
            if (block.columns[c].size() != row_count)
                return fail("column '" + std::string(known[c].name)
                            + "' holds "
                            + std::to_string(block.columns[c].size())
                            + " values for " + std::to_string(row_count)
                            + " rows (block "
                            + std::to_string(block_index) + ")");
        for (u64 row = 0; row < row_count; ++row) {
            bool ok;
            if (onFold) {
                ok = foldFleetRow(block, row, fleet_row, env_labels,
                                  onFold);
            } else if (kind == SchemaKind::Sweep) {
                ok = takeSweepRow(block, &sweep_row, legacy_power);
                if (ok && onSweep)
                    onSweep(sweep_row);
            } else if (kind == SchemaKind::Fleet) {
                ok = takeFields(block, fleetSchema(), &fleet_row);
                if (ok && onFleet)
                    onFleet(fleet_row);
            } else {
                ok = takeFields(block, traceSchema(), &trace_row);
                if (ok && onTrace)
                    onTrace(trace_row);
            }
            if (!ok)
                return fail(block.error + " (block "
                            + std::to_string(block_index) + ", row "
                            + std::to_string(row) + ")");
        }
        for (u64 c = 0; !onFold && c < block.columns.size(); ++c) {
            if (block.columns[c].cursor != block.columns[c].size())
                return fail(
                    "column '" + std::string(known[c].name) + "' holds "
                    + std::to_string(block.columns[c].size())
                    + " values but the rows consumed "
                    + std::to_string(block.columns[c].cursor)
                    + " (block " + std::to_string(block_index) + ")");
        }
        out_info.rows += row_count;
        ++out_info.blocks;
        *cursor = bpos;
        return true;
    };

    if (version >= 2) {
        // Index-guided walk: every block's observed position, row
        // count and digest state must match its index entry; blocks
        // outside the row range are skipped undecoded by trusting the
        // (checksummed) entry instead.
        for (u64 i = 0; i < index.size(); ++i) {
            const auto &e = index[i];
            if (pos != e.offset)
                return fail("index entry " + std::to_string(i)
                            + " points at byte "
                            + std::to_string(e.offset)
                            + " but the blocks end at "
                            + std::to_string(pos));
            const bool prune = range != nullptr
                && (e.idMax < range->lo || e.idMin > range->hi);
            if (prune) {
                pos = i + 1 < index.size() ? index[i + 1].offset
                                           : index_offset;
                chunk_digest = e.digestAfter;
                out_info.rows += e.rows;
                ++out_info.blocks;
                ++out_info.blocksSkipped;
                continue;
            }
            const u64 rows_before = out_info.rows;
            if (!read_block(&pos))
                return false;
            if (out_info.rows - rows_before != e.rows)
                return fail("index entry " + std::to_string(i)
                            + " declares " + std::to_string(e.rows)
                            + " rows but the block held "
                            + std::to_string(out_info.rows
                                             - rows_before));
            if (chunk_digest != e.digestAfter)
                return fail("index digest mismatch after block "
                            + std::to_string(i)
                            + " (corrupted index or blocks)");
        }
        if (pos != index_offset)
            return fail("blocks do not end at the index (corrupted "
                        "file)");
        chainDigest(&chunk_digest, index_checksum);
        pos = footer_pos;
    } else {
        for (;;) {
            if (pos >= bytes.size())
                return fail("truncated file (missing footer — the "
                            "writer did not finish())");
            if (bytes[pos] == kFooterMarker)
                break;
            if (!read_block(&pos))
                return false;
        }
    }

    if (pos >= bytes.size() || bytes[pos] != kFooterMarker)
        return fail("truncated file (missing footer — the writer "
                    "did not finish())");
    ++pos;
    u64 declared_rows = 0;
    u64 declared_digest = 0;
    if (!getVarint(bytes, &pos, &declared_rows)
        || !getU64Le(bytes, &pos, &declared_digest))
        return fail("truncated footer");
    if (declared_rows != out_info.rows)
        return fail("footer declares " + std::to_string(declared_rows)
                    + " rows but the blocks held "
                    + std::to_string(out_info.rows));
    if (declared_digest != chunk_digest)
        return fail("footer digest mismatch (blocks were corrupted "
                    "or reordered)");
    if (version >= 2)
        pos += 8; // the index offset trailer, validated up front
    if (pos != bytes.size())
        return fail("trailing garbage after the footer");
    return true;
}

} // namespace

bool
readSonicz(std::istream &in,
           const std::function<void(const app::SweepRecord &)> &onSweep,
           const std::function<void(const fleet::DeviceTelemetry &)>
               &onFleet,
           SoniczInfo *info, std::string *error, const RowRange *range)
{
    return readSoniczImpl(in, onSweep, onFleet, nullptr, nullptr, info,
                          error, range);
}

bool
readFleetBlocks(std::istream &in,
                const std::function<void(const FleetFoldRow &)> &onRow,
                SoniczInfo *info, std::string *error,
                const RowRange *range)
{
    return readSoniczImpl(in, nullptr, nullptr, onRow, nullptr, info,
                          error, range);
}

bool
readTraceRows(std::istream &in,
              const std::function<void(const TraceRow &)> &onRow,
              SoniczInfo *info, std::string *error,
              const RowRange *range)
{
    return readSoniczImpl(in, nullptr, nullptr, nullptr, onRow, info,
                          error, range);
}

} // namespace sonic::telemetry
