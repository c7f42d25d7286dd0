/**
 * @file
 * The experiment engine: executes RunSpecs — single-shot or whole
 * SweepPlan grids on util::parallelFor's worker pool — resolving
 * workloads by name through the ModelZoo's deterministic cache
 * (teacher/compressed networks, datasets), and streams finished
 * results into pluggable sinks.
 *
 * Determinism contract: every spec runs on its own freshly-built
 * Device against immutable cached workloads and fills its own record
 * slot, so a sweep's results are bit-identical regardless of the
 * thread count, and sinks always receive records in plan-expansion
 * order (the pool emits a record once every earlier one has finished).
 */

#ifndef SONIC_APP_ENGINE_HH
#define SONIC_APP_ENGINE_HH

#include <iosfwd>
#include <vector>

#include "app/sweep.hh"
#include "telemetry/fields.hh"
#include "util/json.hh"

namespace sonic::app
{

/** One finished grid point: where it was in the plan and what ran. */
struct SweepRecord
{
    u32 planIndex = 0; ///< position in SweepPlan::expand() order
    RunSpec spec;
    ExperimentResult result;
};

/**
 * The sweep record's scalar fields: the spec and result scalars, plus
 * the derived environment label and failure-schedule length the CSV
 * prints. The CSV sink and the .sonicz sweep schema walk it; the list
 * fields (schedule, reboot digests, layers, op energies, logits) are
 * the .sonicz schema's own code, and JsonSink stays hand-written.
 */
const telemetry::FieldTable<SweepRecord> &sweepFields();

/**
 * Receives records in plan order as they become available. Sink
 * methods are never called concurrently (the engine serializes them),
 * so implementations need no locking of their own.
 */
class ResultSink
{
  public:
    virtual ~ResultSink() = default;

    /** Called once before any record, with the expanded plan size. */
    virtual void begin(u64 totalRecords) { (void)totalRecords; }

    /** Called once per record, in plan order. */
    virtual void add(const SweepRecord &record) = 0;

    /** Called once after the last record. */
    virtual void end() {}
};

/** Collects records into memory. */
class MemorySink : public ResultSink
{
  public:
    void begin(u64 totalRecords) override;
    void add(const SweepRecord &record) override;

    const std::vector<SweepRecord> &records() const { return records_; }
    std::vector<SweepRecord> take() { return std::move(records_); }

  private:
    std::vector<SweepRecord> records_;
};

/** The sweep CSV's columns. */
const telemetry::FieldOrder<SweepRecord> &csvFields();

/** Streams one CSV row per record (header first). */
using CsvSink = telemetry::CsvSinkOf<ResultSink, SweepRecord, csvFields>;

/**
 * Streams a JSON array of record objects, including the per-layer
 * breakdown, per-op energies and logits.
 */
class JsonSink : public ResultSink
{
  public:
    explicit JsonSink(std::ostream &os) : w_(os) {}

    void begin(u64 totalRecords) override;
    void add(const SweepRecord &record) override;
    void end() override;

  private:
    json::Writer w_;
};

/** Engine configuration. */
struct EngineOptions
{
    /** Workers for sweeps and oracle batteries; 0 = hardware concurrency. */
    u32 threads = 0;

    /** Heartbeat coordinates/s + ETA line on stderr while the sweep
     * runs (sonic_sweep --progress). */
    bool progress = false;
};

/**
 * Executes experiments. Workload artifacts come from the process-wide
 * ModelZoo cache (dnn/zoo.hh): any registered model is sweepable by
 * name, built lazily once, and shared by every engine.
 */
class Engine
{
  public:
    explicit Engine(EngineOptions options = {});
    ~Engine();

    Engine(const Engine &) = delete;
    Engine &operator=(const Engine &) = delete;

    /** Run one inference experiment on the calling thread. */
    ExperimentResult runOne(const RunSpec &spec);

    /**
     * Expand and execute a plan over the worker pool, one record slot
     * per spec. Records are streamed to the sinks in plan order as
     * they finish, and the slots are returned.
     */
    std::vector<SweepRecord> run(const SweepPlan &plan,
                                 const std::vector<ResultSink *> &sinks
                                 = {});

    /** The worker-thread count a sweep will use. */
    u32 threadCount() const;

  private:
    EngineOptions options_;
};

} // namespace sonic::app

#endif // SONIC_APP_ENGINE_HH
