/**
 * @file
 * sql_queries: SQL text to result on the software engine, one caller in
 * a closed loop, no simulation at all. Ops cycle through a pool that
 * mixes three query classes in fixed proportions:
 *  - small selective lookups on the star schema's small tables, where
 *    the front end (parse, plan, optimize) dominates;
 *  - the four JOB-style star joins of bench/sql_join, where the
 *    executor dominates;
 *  - the Figure-4 FOR-loop script via Executor::runScript, which writes
 *    temp tables per read beside the reads.
 * Every result is checked against the optimizer-off, row-at-a-time
 * executor, whose outputs are computed once during set-up.
 */

#include <algorithm>
#include <optional>

#include "base/rng.h"
#include "core/example_accel.h"
#include "engine/executor.h"
#include "genome/read_simulator.h"
#include "harness.h"
#include "sql/optimizer.h"
#include "sql/parser.h"
#include "table/genomic_schema.h"
#include "table/partition.h"

using namespace genesis;
using table::DataType;
using table::Schema;
using table::Table;
using table::Value;

namespace perfbench {

namespace {

/** Read pairs behind the star schema's READS table. */
constexpr int64_t kStarPairs = 2'000;
/** Pool shape: the share of each class is fixed within every cycle. */
constexpr int kLookups = 15;
constexpr int kJoinRounds = 2; // x the four join shapes
constexpr int kScripts = 1;
/** Figure-4 script input: one reference window of this many bases. */
constexpr int64_t kScriptPsize = 2'048;
constexpr int64_t kScriptOverlap = 512;
constexpr int64_t kScriptPairs = 12;

enum class QueryClass { Lookup, Join, Script };

struct Query {
    QueryClass cls;
    std::string sql;
    Table golden;
};

Value
randomInt(Rng &rng, uint64_t bound)
{
    return Value(static_cast<int64_t>(rng.below(bound)));
}

/** READS -> SAMPLES -> COHORTS star plus a POS-keyed VARIANTS side. */
void
addStarTables(engine::Catalog &cat, Rng &rng)
{
    const int64_t reads = 2 * kStarPairs;
    const int64_t samples = std::max<int64_t>(8, kStarPairs / 16);
    const int64_t cohorts = 16;
    const int64_t variants = std::max<int64_t>(16, kStarPairs / 2);
    const auto span = static_cast<uint64_t>(4 * reads);

    Schema rs;
    for (const char *f : {"ID", "SAMPLE_ID", "POS", "MAPQ", "FLAGS"})
        rs.addField(f, DataType::Int64);
    Table rt("READS", rs);
    for (int64_t i = 0; i < reads; ++i) {
        Value mapq = rng.below(20) == 0 ? Value() : randomInt(rng, 60);
        rt.appendRow({Value(i),
                      randomInt(rng, static_cast<uint64_t>(samples)),
                      randomInt(rng, span), mapq, randomInt(rng, 4)});
    }
    cat.put("READS", std::move(rt));

    Schema ss;
    for (const char *f : {"SAMPLE_ID", "COHORT_ID", "QUALITY"})
        ss.addField(f, DataType::Int64);
    Table st("SAMPLES", ss);
    for (int64_t i = 0; i < samples; ++i) {
        st.appendRow({Value(i),
                      randomInt(rng, static_cast<uint64_t>(cohorts)),
                      randomInt(rng, 100)});
    }
    cat.put("SAMPLES", std::move(st));

    Schema cs;
    for (const char *f : {"COHORT_ID", "REGION", "WEIGHT"})
        cs.addField(f, DataType::Int64);
    Table ct("COHORTS", cs);
    for (int64_t i = 0; i < cohorts; ++i)
        ct.appendRow({Value(i), randomInt(rng, 10), randomInt(rng, 1000)});
    cat.put("COHORTS", std::move(ct));

    Schema vs;
    for (const char *f : {"POS", "DEPTH", "IS_SNP"})
        vs.addField(f, DataType::Int64);
    Table vt("VARIANTS", vs);
    for (int64_t i = 0; i < variants; ++i) {
        vt.appendRow({randomInt(rng, span), randomInt(rng, 500),
                      randomInt(rng, 2)});
    }
    cat.put("VARIANTS", std::move(vt));
}

/** Lookup `index` of the pool: the three shapes take equal shares. */
std::string
lookupSql(int index, Rng &rng)
{
    const std::string k = std::to_string(rng.below(16));
    switch (index % 3) {
      case 0:
        return "SELECT c.REGION AS region, c.WEIGHT AS w FROM COHORTS c "
               "WHERE c.COHORT_ID == " + k;
      case 1:
        return "SELECT s.COHORT_ID AS cohort, s.QUALITY AS q "
               "FROM SAMPLES s WHERE s.SAMPLE_ID == " + k;
      default:
        return "SELECT COUNT(*) AS n FROM SAMPLES s "
               "WHERE s.QUALITY >= 50 AND s.COHORT_ID == " + k;
    }
}

/** The four bench/sql_join star joins. */
const char *const kJoins[] = {
    "SELECT COUNT(*) AS n, SUM(r.MAPQ) AS m FROM READS r "
    "INNER JOIN SAMPLES s ON r.SAMPLE_ID = s.SAMPLE_ID "
    "INNER JOIN COHORTS c ON s.COHORT_ID = c.COHORT_ID "
    "WHERE r.MAPQ >= 20 AND c.REGION == 3 GROUP BY s.COHORT_ID",
    "SELECT COUNT(*) AS n, MIN(r.POS) AS p FROM READS r "
    "INNER JOIN VARIANTS v ON r.POS = v.POS "
    "WHERE v.IS_SNP == 1 AND r.FLAGS != 0 GROUP BY r.FLAGS",
    "SELECT COUNT(*) AS n FROM READS r "
    "INNER JOIN SAMPLES s ON r.SAMPLE_ID = s.SAMPLE_ID "
    "INNER JOIN COHORTS c ON s.COHORT_ID = c.COHORT_ID "
    "INNER JOIN VARIANTS v ON r.POS = v.POS "
    "WHERE r.MAPQ >= 10 AND s.QUALITY >= 30 GROUP BY c.REGION",
    "SELECT r.ID AS id, r.POS AS pos, v.DEPTH AS d FROM READS r "
    "LEFT JOIN VARIANTS v ON r.POS = v.POS "
    "WHERE r.MAPQ >= 30 AND NOT r.FLAGS == 2",
};

constexpr engine::ExecConfig kFast{true, true, sql::kAllRules};
constexpr engine::ExecConfig kReference{false, false, sql::kAllRules};

class SqlQueries
{
  public:
    SqlQueries(uint64_t seed, Report &report) : seed_(seed)
    {
        report.unit = "queries";
        const auto synth_start = Clock::now();
        Rng rng(deriveSeed(seed, 1, 0));
        addStarTables(catalog_, rng);
        addScriptTables(deriveSeed(seed, 2, 0));
        report.setupValues["genome.synth_s"].push_back(
            secondsSince(synth_start));

        const auto stats_start = Clock::now();
        for (const char *name : {"READS", "SAMPLES", "COHORTS", "VARIANTS"})
            catalog_.stats(name);
        report.setupValues["table.stats_ms"].push_back(
            secondsSince(stats_start) * 1e3);

        const auto golden_start = Clock::now();
        for (int i = 0; i < kLookups; ++i)
            addQuery(QueryClass::Lookup, lookupSql(i, rng));
        for (int round = 0; round < kJoinRounds; ++round) {
            for (const char *join : kJoins)
                addQuery(QueryClass::Join, join);
        }
        for (int i = 0; i < kScripts; ++i)
            addQuery(QueryClass::Script, core::matchCountQueryText());
        report.setupValues["engine.golden_s"].push_back(
            secondsSince(golden_start));

        Tracer off;
        OpRecord ignored;
        size_t warm = 0;
        std::optional<Table> out = run(warm, off, ignored);
        std::string why;
        if (!check(warm, out, why))
            throw std::runtime_error("warm-up op failed: " + why);
    }

    /** Pool index of op `op`: a seeded shuffle of the pool per cycle. */
    size_t
    prepare(uint64_t op)
    {
        const uint64_t cycle = op / pool_.size();
        if (order_.empty() || cycle != orderCycle_) {
            order_.resize(pool_.size());
            for (size_t i = 0; i < order_.size(); ++i)
                order_[i] = i;
            Rng rng(deriveSeed(seed_, 3, cycle));
            for (size_t i = order_.size(); i > 1; --i)
                std::swap(order_[i - 1], order_[rng.below(i)]);
            orderCycle_ = cycle;
        }
        const size_t index = order_[op % pool_.size()];
        if (pool_[index].cls == QueryClass::Script)
            catalog_.erase("Output"); // the script appends to it
        return index;
    }

    std::optional<Table>
    run(size_t index, Tracer &tracer, OpRecord &rec)
    {
        const Query &q = pool_[index];
        engine::Executor exec(catalog_, kFast);
        sql::Script script = tracer.span(
            "sql.parse", [&] { return sql::parseScript(q.sql); });
        std::optional<Table> result;
        if (q.cls == QueryClass::Script) {
            setScriptVariables(exec);
            tracer.span("engine.script",
                        [&] { exec.runScript(script); });
            if (const Table *output = catalog_.find("Output"))
                result = *output;
        } else {
            sql::PlanPtr plan = tracer.span("sql.plan", [&] {
                return sql::planSelect(*script.statements.at(0)->select);
            });
            plan = tracer.span("sql.optimize", [&] {
                sql::OptimizerOptions opts;
                opts.stats = exec.statsProvider();
                return sql::optimizePlan(std::move(plan), opts);
            });
            result = tracer.span(q.cls == QueryClass::Lookup
                                     ? "engine.exec.lookup"
                                     : "engine.exec.join",
                                 [&] { return exec.runPlan(*plan); });
        }
        rec.set("engine.rows_out",
                result ? static_cast<double>(result->numRows()) : 0.0);
        rec.units = 1.0;
        return result;
    }

    bool
    check(size_t index, const std::optional<Table> &result,
          std::string &why) const
    {
        const Query &q = pool_[index];
        if (!result || !result->contentEquals(q.golden)) {
            why = "result differs from the reference executor: " + q.sql;
            return false;
        }
        return true;
    }

  private:
    void
    addScriptTables(uint64_t seed)
    {
        genome::SyntheticGenomeConfig gcfg;
        gcfg.numChromosomes = 1;
        gcfg.firstChromosomeLength = kScriptPsize;
        gcfg.minChromosomeLength = kScriptPsize;
        gcfg.seed = seed;
        auto genome = genome::ReferenceGenome::synthesize(gcfg);
        genome::ReadSimulatorConfig rcfg;
        rcfg.numPairs = kScriptPairs;
        rcfg.seed = seed + 1;
        auto reads = genome::ReadSimulator(genome, rcfg).simulate().reads;
        const auto partitions =
            table::Partitioner(kScriptPsize).partitionReads(reads);
        const table::ReadPartition &part = partitions.front();
        scriptPid_ = part.pid;
        scriptWindowStart_ = part.windowStart;
        catalog_.putPartition("READS", part.pid,
                              table::buildReadsTable(reads,
                                                     part.readIndices));
        catalog_.put("REF", table::buildRefTable(genome, kScriptPsize,
                                                 kScriptOverlap));
    }

    void
    setScriptVariables(engine::Executor &exec) const
    {
        exec.env().variables["P"] = Value(scriptPid_);
        exec.env().variables["WSTART"] = Value(scriptWindowStart_);
    }

    void
    addQuery(QueryClass cls, std::string text)
    {
        engine::Executor ref(catalog_, kReference);
        Table golden;
        if (cls == QueryClass::Script) {
            catalog_.erase("Output");
            setScriptVariables(ref);
            ref.run(text);
            golden = *catalog_.find("Output");
        } else {
            golden = ref.run(text).value();
        }
        pool_.push_back({cls, std::move(text), std::move(golden)});
    }

    uint64_t seed_;
    engine::Catalog catalog_;
    int64_t scriptPid_ = 0;
    int64_t scriptWindowStart_ = 0;
    std::vector<Query> pool_;
    std::vector<size_t> order_;
    uint64_t orderCycle_ = 0;
};

} // namespace

void
runSqlQueries(const Options &options, Report &report, Tracer &tracer)
{
    runClosedLoop<SqlQueries>(options, report, tracer);
}

} // namespace perfbench
