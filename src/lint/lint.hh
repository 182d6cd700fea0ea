/**
 * @file
 * Project-specific static analysis: the mprobe invariant linter.
 *
 * The reproduction's load-bearing guarantees are invisible to the
 * compiler: campaigns must be bit-identical at any worker/shard
 * count, exports and manifests must be byte-stable, cache keys and
 * fingerprints must cover every result-relevant parameter, and the
 * decoded simulator hot path must never touch the heap. Each rule
 * here mechanically checks one of those invariants over the source
 * tree, so the next subsystem (new campaign axes, new models, new
 * parallelism) cannot silently break them:
 *
 *  - `nondeterminism`: no wall clocks or ambient RNG
 *    (rand()/std::random_device/time()/system_clock/steady_clock
 *    ...) in result-feeding code (src/ and tools/). Progress, ETA
 *    and heartbeat code declares itself with
 *    `// lint: wallclock-ok(<reason>)`.
 *  - `unordered-iteration`: no std::unordered_map/set in the
 *    export/cache/manifest/fingerprint file set — hash-table
 *    iteration order would leak into byte-compared artifacts.
 *    Escape hatch: `// lint: unordered-ok(<reason>)`.
 *  - `obs-isolation`: no `obs::` reference in the byte-identity
 *    file set (export/cache/manifest/spec/hash) — the
 *    observability layer (src/obs/: traces, metrics, telemetry)
 *    must never be able to leak into results. No escape hatch;
 *    count plainly in place and sync from the engine instead.
 *  - `hot-path-alloc`: no heap allocation (new/make_unique/malloc/
 *    growing containers) inside any definition of
 *    simulateCoreDecoded or of its cycle loop runCoreLoop in
 *    src/sim/core.cc, or of the cache walk CacheLevel::access and
 *    CacheHierarchy::access in src/sim/cache.cc — the arena
 *    discipline; a missing one is a finding too. Escape hatch:
 *    `// lint: hotpath-alloc-ok(<reason>)`.
 *  - `fingerprint-coverage`: every field of GroundTruthParams must
 *    be referenced by Machine::fingerprint(), and every field of
 *    CampaignSpec by campaignFingerprint(), unless its declaration
 *    carries `// lint: fingerprint-exempt(<reason>)`. Adding a
 *    result-relevant knob without hashing it is the bug class that
 *    silently replays stale cached samples.
 *
 * The per-rule entry points take source text, not paths, so tests
 * drive them with inline fixture snippets; lintTree() is what the
 * CLI and CI run over the real tree.
 */

#ifndef LINT_LINT_HH
#define LINT_LINT_HH

#include <string>
#include <vector>

namespace mprobe
{

/** One rule violation. */
struct LintFinding
{
    /** Repo-relative path of the offending file. */
    std::string file;
    /** 1-based line of the offending token/field. */
    int line = 0;
    /** Rule identifier (e.g. "nondeterminism"). */
    std::string rule;
    std::string message;

    /** "file:line: [rule] message" as printed by mprobe_lint. */
    std::string format() const;
};

/**
 * Run every token-level rule whose scope covers @p path (a
 * repo-relative path like "src/campaign/export.cc") over @p text.
 * Scope decisions live with the rules, so a test can present any
 * snippet as any path.
 */
std::vector<LintFinding> lintSourceText(const std::string &path,
                                        const std::string &text);

/**
 * Fingerprint-coverage check: every data member of
 * @p struct_name declared in @p struct_text must appear as an
 * identifier inside the body of @p fn_name defined in @p fn_text,
 * or carry a `// lint: fingerprint-exempt(<reason>)` annotation on
 * its declaration (same line or the line above). A missing struct
 * or function is itself a finding — a renamed hot spot must not
 * silently disable its checks.
 */
std::vector<LintFinding>
lintFingerprintCoverage(const std::string &struct_file,
                        const std::string &struct_text,
                        const std::string &struct_name,
                        const std::string &fn_file,
                        const std::string &fn_text,
                        const std::string &fn_name);

/**
 * Lint the whole tree under @p root (the repo checkout): every
 * .cc/.hh file beneath src/, bench/, tests/ and tools/ goes through
 * lintSourceText, then the configured fingerprint-coverage pairs
 * (GroundTruthParams vs Machine::fingerprint, CampaignSpec vs
 * campaignFingerprint) are cross-referenced. Findings come back in
 * deterministic (path, line) order.
 */
std::vector<LintFinding> lintTree(const std::string &root);

} // namespace mprobe

#endif // LINT_LINT_HH
