/**
 * @file
 * Campaign spec parsing.
 */

#include "campaign/spec.hh"

#include <fstream>
#include <limits>
#include <sstream>

#include "util/logging.hh"
#include "util/str.hh"

namespace mprobe
{

std::string
CampaignSpec::contentSummary() const
{
    std::ostringstream os;
    os << "campaign: ";
    bool any = false;
    auto sep = [&]() { return any ? " + " : (any = true, ""); };
    if (suiteEnabled) {
        os << sep();
        if (categories.empty()) {
            os << "full Table-2 suite";
        } else {
            os << "suite[";
            for (size_t i = 0; i < categories.size(); ++i)
                os << (i ? "," : "")
                   << benchCategoryName(categories[i]);
            os << "]";
        }
    }
    if (specProxies)
        os << sep() << "SPEC proxies";
    if (daxpy)
        os << sep() << "DAXPY";
    if (extremes)
        os << sep() << "extremes";
    // Measurement-only specs (benches, the model pipeline) select
    // no generated source; their workloads arrive via measure().
    if (!any)
        os << "adhoc measurement";
    os << " x " << configs.size() << " configs";
    if (!freqs.empty())
        os << " x " << freqs.size()
           << (freqs.size() == 1 ? " freq" : " freqs");
    if (!vdds.empty())
        os << " x " << vdds.size()
           << (vdds.size() == 1 ? " vdd" : " vdds");
    return os.str();
}

std::string
CampaignSpec::summary() const
{
    std::ostringstream os;
    os << contentSummary() << ", ";
    if (threads == 0)
        os << "auto threads";
    else
        os << threads << (threads == 1 ? " thread" : " threads");
    if (!cacheDir.empty())
        os << ", cache " << cacheDir;
    if (sharded())
        os << ", shard " << shardIndex << "/" << shardCount;
    if (serve)
        os << ", serve (claim TTL " << claimTtlSeconds << "s)";
    return os.str();
}

ChipConfig
parseConfig(const std::string &s, const std::string &context)
{
    auto parts = split(trim(s), '-');
    if (parts.size() != 2)
        fatal(cat("bad config '", trim(s), "' (want cores-smt) in ",
                  context));
    const long cores = parseInt(parts[0], context);
    const long smt = parseInt(parts[1], context);
    ChipConfig cfg{static_cast<int>(cores), static_cast<int>(smt)};
    // The round trip catches a value that wraps into range.
    if (cfg.cores != cores || cfg.smt != smt || !cfg.valid())
        fatal(cat("bad config '", trim(s),
                  "' (want 1-8 cores and SMT 1, 2 or 4) in ", context));
    return cfg;
}

std::vector<ChipConfig>
parseConfigList(const std::string &s, const std::string &context)
{
    if (toLower(trim(s)) == "all")
        return ChipConfig::all();
    std::vector<ChipConfig> out;
    for (const auto &c : split(s, ','))
        out.push_back(parseConfig(c, context));
    if (out.empty())
        fatal(cat("empty config list in ", context));
    return out;
}

namespace
{

std::vector<double>
parseFreqList(const std::string &s, const std::string &context)
{
    std::vector<double> out;
    for (const auto &f : split(s, ',')) {
        double ghz = parseDouble(trim(f), context);
        if (ghz <= 0.0)
            fatal(cat("frequency must be > 0 GHz, got '", trim(f),
                      "' in ", context));
        for (double seen : out)
            if (seen == ghz)
                fatal(cat("duplicate frequency ", trim(f), " in ",
                          context));
        out.push_back(ghz);
    }
    if (out.empty())
        fatal(cat("empty frequency list in ", context));
    return out;
}

std::vector<double>
parseVddList(const std::string &s, const std::string &context)
{
    std::vector<double> out;
    for (const auto &v : split(s, ',')) {
        double volts = parseDouble(trim(v), context);
        if (volts <= 0.0)
            fatal(cat("voltage must be > 0 V, got '", trim(v),
                      "' in ", context));
        for (double seen : out)
            if (seen == volts)
                fatal(cat("duplicate voltage ", trim(v), " in ",
                          context));
        out.push_back(volts);
    }
    if (out.empty())
        fatal(cat("empty voltage list in ", context));
    return out;
}

/**
 * @p text as an int of at least @p min. A size, count or index the
 * generators or the engine cannot take wraps or vanishes silently
 * downstream, so it is refused here, naming @p what.
 */
int
intAtLeast(const std::string &text, long min, const std::string &what,
           const std::string &context)
{
    long v = parseInt(text, context);
    if (v < min)
        fatal(cat(what, " must be >= ", min, " in ", context));
    if (v > std::numeric_limits<int>::max())
        fatal(cat(what, " must be <= ", std::numeric_limits<int>::max(),
                  " in ", context));
    return static_cast<int>(v);
}

void
parseShard(const std::string &s, const std::string &context,
           int &index, int &count)
{
    auto parts = split(trim(s), '/');
    if (parts.size() != 2)
        fatal(cat("bad shard '", trim(s),
                  "' (want index/count, e.g. 0/4) in ", context));
    index = intAtLeast(parts[0], 0, "shard index", context);
    count = intAtLeast(parts[1], 1, "shard count", context);
    if (index >= count)
        fatal(cat("shard index ", index, " out of range [0, ",
                  count, ") in ", context));
}

BenchCategory
parseBenchCategory(const std::string &s, const std::string &context)
{
    std::string t = toLower(trim(s));
    if (t == "simpleint" || t == "simple_integer")
        return BenchCategory::SimpleInteger;
    if (t == "complexint" || t == "complex_integer")
        return BenchCategory::ComplexInteger;
    if (t == "integer")
        return BenchCategory::Integer;
    if (t == "floatvector" || t == "float_vector" || t == "fpvector")
        return BenchCategory::FloatVector;
    if (t == "unitmix" || t == "unit_mix")
        return BenchCategory::UnitMix;
    if (t == "memory" || t == "memory_group")
        return BenchCategory::MemoryGroup;
    if (t == "random")
        return BenchCategory::Random;
    fatal(cat("unknown suite category '", trim(s), "' in ",
              context));
}

} // namespace

size_t
parseBodySize(const std::string &s, const std::string &context)
{
    return static_cast<size_t>(intAtLeast(s, 2, "body_size", context));
}

void
applySpecSetting(CampaignSpec &spec, const std::string &key,
                 const std::string &value, const std::string &context)
{
    auto flag = [&]() { return parseInt(value, context) != 0; };
    auto atLeast = [&](long min) {
        return intAtLeast(value, min, key, context);
    };
    if (key == "categories") {
        spec.suiteEnabled = false;
        spec.categories.clear();
        for (const auto &c : split(value, ',')) {
            std::string t = toLower(trim(c));
            if (t == "none")
                continue;
            spec.suiteEnabled = true;
            if (t == "all") {
                spec.categories.clear();
                break;
            }
            spec.categories.push_back(parseBenchCategory(t, context));
        }
    } else if (key == "spec_proxies") {
        spec.specProxies = flag();
    } else if (key == "daxpy") {
        spec.daxpy = flag();
    } else if (key == "extremes") {
        spec.extremes = flag();
    } else if (key == "configs") {
        spec.configs = parseConfigList(value, context);
    } else if (key == "freqs") {
        spec.freqs = parseFreqList(value, context);
    } else if (key == "vdds") {
        spec.vdds = parseVddList(value, context);
    } else if (key == "threads") {
        spec.threads = atLeast(0); // 0 = one per hardware thread
    } else if (key == "cache_dir") {
        spec.cacheDir = value;
    } else if (key == "salt") {
        spec.salt = parseUint64(value, context);
    } else if (key == "bootstrap") {
        spec.bootstrap = flag();
    } else if (key == "shard") {
        parseShard(value, context, spec.shardIndex, spec.shardCount);
    } else if (key == "progress_seconds") {
        spec.progressSeconds = parseDouble(value, context);
        if (spec.progressSeconds < 0)
            fatal(cat("progress_seconds must be >= 0 (0 = disabled) in ",
                      context));
    } else if (key == "serve") {
        spec.serve = flag();
    } else if (key == "claim_ttl_seconds") {
        spec.claimTtlSeconds = parseDouble(value, context);
        if (spec.claimTtlSeconds <= 0)
            fatal(cat("claim_ttl_seconds must be > 0 in ", context));
    } else if (key == "seed") {
        spec.suite.seed = parseUint64(value, context);
    } else if (key == "body_size") {
        spec.suite.bodySize = parseBodySize(value, context);
    } else if (key == "per_memory_group") {
        spec.suite.perMemoryGroup = atLeast(0);
    } else if (key == "memory_count") {
        spec.suite.memoryCount = atLeast(0);
    } else if (key == "random_count") {
        spec.suite.randomCount = atLeast(0);
    } else if (key == "ipc_search_budget") {
        spec.suite.ipcSearchBudget = atLeast(0);
    } else if (key == "ga_population") {
        spec.suite.gaPopulation = atLeast(0);
    } else if (key == "ga_generations") {
        spec.suite.gaGenerations = atLeast(0);
    } else if (key == "extend_unit_mix") {
        spec.suite.extendUnitMix = flag();
    } else {
        fatal(cat("unknown campaign key '", key, "' in ", context));
    }
}

namespace
{

/** Whether trimmed spec line @p s is a setting: not blank and not
 * a comment. */
bool
isSettingLine(const std::string &s)
{
    return !s.empty() && s[0] != '#';
}

} // namespace

bool
specHasSettings(const std::string &text)
{
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line))
        if (isSettingLine(trim(line)))
            return true;
    return false;
}

CampaignSpec
parseCampaignSpecText(const std::string &text,
                      const std::string &origin)
{
    CampaignSpec spec;
    std::istringstream in(text);
    std::string line;
    int lineno = 0;

    while (std::getline(in, line)) {
        ++lineno;
        std::string context = cat(origin, ":", lineno);
        std::string s = trim(line);
        if (!isSettingLine(s))
            continue;
        // Split on the first '=' only: values may contain '='
        // (e.g. cache_dir paths).
        auto eq = s.find('=');
        if (eq == std::string::npos || eq == 0)
            fatal(cat("expected 'key = value', got '", s, "' in ",
                      context));
        applySpecSetting(spec, toLower(trim(s.substr(0, eq))),
                         trim(s.substr(eq + 1)), context);
    }

    // Only a `categories` line can clear suiteEnabled, so this fires
    // exactly when the spec's source keys select nothing.
    if (!spec.suiteEnabled && !spec.specProxies && !spec.daxpy &&
        !spec.extremes)
        fatal(cat(origin, ": campaign spec selects no workloads"));

    // spec.categories reaches the suite generator via the Campaign
    // constructor (the single owner of that sync).
    return spec;
}

std::string
readCampaignSpecText(const std::string &path)
{
    std::ifstream f(path);
    if (!f)
        fatal(cat("cannot open campaign spec '", path, "'"));
    std::ostringstream os;
    os << f.rdbuf();
    return os.str();
}

CampaignSpec
loadCampaignSpec(const std::string &path)
{
    return parseCampaignSpecText(readCampaignSpecText(path), path);
}

} // namespace mprobe
