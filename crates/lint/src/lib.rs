//! `mcgc-lint`: the workspace's fence/unsafe discipline, enforced by a
//! hand-rolled token scan (no `syn`, no external dependencies — the
//! workspace is hermetic by design).
//!
//! Rules:
//!
//! * **no-raw-fence** — `std::sync::atomic::fence` / `compiler_fence`
//!   (calls or imports) are forbidden outside `crates/membar`. All
//!   fences go through `mcgc_membar::{release_fence, acquire_fence,
//!   full_fence}` so every barrier carries a [`FenceKind`] tied to a
//!   paper section and is visible to the fence-counting tests.
//! * **no-raw-ordering** — atomic `Ordering::{Relaxed, Acquire,
//!   Release, AcqRel, SeqCst}` is forbidden outside `crates/membar` and
//!   an explicit per-file allowlist ([`ORDERING_ALLOWLIST`]). Adding an
//!   atomic to a new file is a reviewable act: extend the allowlist in
//!   the same change.
//! * **undocumented-unsafe** — every `unsafe` keyword (block, fn, impl,
//!   trait) must carry a `// SAFETY:` comment (or a `/// # Safety` doc
//!   section) on the same line or in the contiguous comment/attribute
//!   block above it.
//! * **no-static-mut** — `static mut` is forbidden everywhere; use an
//!   atomic or a lock.
//! * **unknown-fault-site** — every `mcgc_fault::point!` call must name
//!   its site as a string literal registered in `mcgc_fault::site::ALL`.
//!   A typo'd or unregistered name would create a site no fault plan can
//!   ever reach (plans validate against the same catalog).
//! * **unknown-span-kind** — every `SpanKind::Variant` token must name a
//!   real flight-recorder variant from `mcgc_telemetry::SpanKind::ALL`.
//!   The span taxonomy is a closed catalog (like the fault sites): the
//!   Perfetto exporter, the postmortem, and the docs all key off it.
//! * **missing-pause-span** — `crates/core/src/collector.rs` must carry
//!   a span guard for every kind in `SpanKind::PAUSE_PHASES`. The
//!   postmortem's ≥95%-coverage criterion holds only because the phase
//!   guards tile the pause; deleting one would silently degrade every
//!   postmortem rather than fail a test.
//! * **condvar-wait-not-in-loop** — every unbounded condvar `.wait(`
//!   must sit directly in a block opened by a `while`/`loop` line: the
//!   predicate re-check is what makes spurious and stale wakeups safe,
//!   and `sched_model`'s `ParkMissesOpen` mutation shows exactly what an
//!   unlocked predicate costs. Timed waits (`wait_for`) are exempt — their callers
//!   tolerate spurious returns by construction — as is
//!   `crates/membar/src/sync.rs`, which implements the wrapper itself.
//! * **seqlock-read-section** — the span rings' speculative read
//!   windows are bracketed by `seqlock-read: begin`/`end` marker
//!   comments. Inside a section no stores, RMWs, `return`s or `break`s
//!   are allowed (the copied words are garbage until revalidated), and
//!   the section must be followed within a few code lines by the
//!   revalidating `load`. Each file in [`SEQLOCK_FILES`] must contain
//!   at least one section, so deleting the markers is itself a finding.
//! * **unmodeled-relaxed** — `Ordering::Relaxed` on an atomic named in
//!   a `crates/check` model ([`MODELED_ATOMICS`]) requires a
//!   `// MODEL: <model>` cross-reference on the same line or in the
//!   contiguous comment block above: the model is only worth its salt
//!   if the code it mirrors points back at it when edited.
//! * **bucket-outside-scheduler** — outside
//!   `crates/core/src/scheduler.rs`, a scheduler bucket variant
//!   (`Bucket::Drain`, `Bucket::Sweep`, …) may appear only as the
//!   argument of a `.run(` call: bucket open/close conditions flip
//!   exclusively through the scheduler API (`Session::run`), never by
//!   hand-rolled dispatch. Associated items (`Bucket::COUNT`,
//!   `Bucket::from_index`) are not variant-shaped and pass through.
//! * **owned-cache-access** — calls of `OwnedCache::owned_mut`, the
//!   lock-free accessor of a mutator's allocation cache, may appear only
//!   in [`OWNED_CACHE_FILES`]: the owning `Mutator` (`mutator.rs`) and
//!   the pause's retire step (`collector.rs`). Those are the two callers
//!   its `# Safety` contract names; a call anywhere else would be a
//!   third party racing the owner.
//!
//! Comments, strings (including raw and byte strings), and char
//! literals are masked out before pattern matching, so prose and test
//! fixtures never trip the rules.
//!
//! Run it with `cargo run -p mcgc-lint` from the workspace root; the
//! binary exits nonzero if any finding is produced. A unit test lints
//! the real tree, so `cargo test` enforces the discipline too.

use std::fmt;
use std::fs;
use std::path::Path;

/// Files (workspace-relative, `/`-separated) allowed to use atomic
/// `Ordering::*` directly. Everything in `crates/membar` is implicitly
/// allowed.
pub const ORDERING_ALLOWLIST: &[&str] = &[
    "crates/core/src/collector.rs",
    "crates/core/src/scheduler.rs",
    "crates/fault/src/lib.rs",
    "crates/core/src/roots.rs",
    "crates/core/src/tracing.rs",
    "crates/heap/src/bitmap.rs",
    "crates/heap/src/cards.rs",
    "crates/heap/src/heap.rs",
    "crates/heap/src/segment.rs",
    "crates/heap/src/shards.rs",
    "crates/heap/src/sweep.rs",
    "crates/packets/src/pool.rs",
    "crates/bench/benches/telemetry_overhead.rs",
    "crates/telemetry/src/histogram.rs",
    "crates/telemetry/src/registry.rs",
    "crates/telemetry/src/spans.rs",
    "crates/workloads/src/framework.rs",
    "crates/workloads/src/javac.rs",
    "crates/workloads/src/jbb.rs",
    "examples/web_server.rs",
    "tests/concurrent_correctness.rs",
    "tests/gc_audit.rs",
    "tests/packet_protocol.rs",
];

/// The only files that may call `OwnedCache::owned_mut` (the
/// `owned-cache-access` rule).
pub const OWNED_CACHE_FILES: &[&str] =
    &["crates/core/src/mutator.rs", "crates/core/src/collector.rs"];

/// Files that must contain at least one `seqlock-read: begin`/`end`
/// section (the span rings' speculative read windows).
pub const SEQLOCK_FILES: &[&str] = &["crates/telemetry/src/spans.rs"];

/// Atomics mirrored by a `crates/check` model: `(file, idents, model)`.
/// A relaxed operation on one of these (`ident.load(Ordering::Relaxed)`
/// etc.) must carry a `// MODEL: <model>` cross-reference so the model
/// and the code it mirrors cannot silently drift apart.
pub const MODELED_ATOMICS: &[(&str, &[&str], &str)] = &[
    (
        "crates/telemetry/src/spans.rs",
        &["seq", "cursor"],
        "seqlock_model",
    ),
    (
        "crates/heap/src/shards.rs",
        &["nonempty", "free_granules"],
        "shard_model",
    ),
    (
        "crates/packets/src/pool.rs",
        &["next", "count"],
        "pool_model",
    ),
    (
        "crates/core/src/scheduler.rs",
        &["sessions", "wakeups", "stalls"],
        "sched_model",
    ),
];

/// One lint violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule identifier (e.g. `no-raw-ordering`).
    pub rule: &'static str,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Replaces the contents of comments, string/char literals (including
/// raw and byte strings) with spaces, preserving newlines and the
/// positions of all remaining characters.
pub fn mask_source(src: &str) -> String {
    let chars: Vec<char> = src.chars().collect();
    let n = chars.len();
    let mut out = String::with_capacity(src.len());
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    let blank = |c: char| if c == '\n' { '\n' } else { ' ' };
    let mut i = 0;
    while i < n {
        let c = chars[i];
        // Line comment.
        if c == '/' && i + 1 < n && chars[i + 1] == '/' {
            while i < n && chars[i] != '\n' {
                out.push(' ');
                i += 1;
            }
            continue;
        }
        // Block comment (nesting).
        if c == '/' && i + 1 < n && chars[i + 1] == '*' {
            let mut depth = 1;
            out.push_str("  ");
            i += 2;
            while i < n && depth > 0 {
                if chars[i] == '/' && i + 1 < n && chars[i + 1] == '*' {
                    depth += 1;
                    out.push_str("  ");
                    i += 2;
                } else if chars[i] == '*' && i + 1 < n && chars[i + 1] == '/' {
                    depth -= 1;
                    out.push_str("  ");
                    i += 2;
                } else {
                    out.push(blank(chars[i]));
                    i += 1;
                }
            }
            continue;
        }
        // Raw (and raw byte) strings: r"…", r#"…"#, br#"…"#, …
        if (c == 'r' || c == 'b') && (i == 0 || !is_ident(chars[i - 1])) {
            let mut j = i;
            if chars[j] == 'b' && j + 1 < n && chars[j + 1] == 'r' {
                j += 1;
            }
            if chars[j] == 'r' {
                let mut k = j + 1;
                let mut hashes = 0;
                while k < n && chars[k] == '#' {
                    hashes += 1;
                    k += 1;
                }
                if k < n && chars[k] == '"' {
                    for &p in &chars[i..=k] {
                        out.push(p);
                    }
                    i = k + 1;
                    while i < n {
                        let closes = chars[i] == '"'
                            && i + hashes < n
                            && chars[i + 1..i + 1 + hashes].iter().all(|&h| h == '#');
                        if closes {
                            out.push('"');
                            for _ in 0..hashes {
                                out.push('#');
                            }
                            i += 1 + hashes;
                            break;
                        }
                        out.push(blank(chars[i]));
                        i += 1;
                    }
                    continue;
                }
            }
        }
        // Byte-string prefix: emit the `b`, let the `"` arm mask it.
        if c == 'b'
            && i + 1 < n
            && (chars[i + 1] == '"' || chars[i + 1] == '\'')
            && (i == 0 || !is_ident(chars[i - 1]))
        {
            out.push('b');
            i += 1;
            continue;
        }
        // String literal.
        if c == '"' {
            out.push('"');
            i += 1;
            while i < n {
                if chars[i] == '\\' && i + 1 < n {
                    // Preserve an escaped newline (line continuation) so
                    // masked and original line numbers stay aligned.
                    out.push(' ');
                    out.push(blank(chars[i + 1]));
                    i += 2;
                } else if chars[i] == '"' {
                    out.push('"');
                    i += 1;
                    break;
                } else {
                    out.push(blank(chars[i]));
                    i += 1;
                }
            }
            continue;
        }
        // Char literal vs lifetime: '\…' or 'x' is a char; anything
        // else ('a in &'a, 'static) is a lifetime and passes through.
        if c == '\'' {
            let is_char = match chars.get(i + 1) {
                Some('\\') => true,
                Some(&c2) if c2 != '\'' => chars.get(i + 2) == Some(&'\''),
                _ => false,
            };
            if is_char {
                out.push('\'');
                i += 1;
                while i < n {
                    if chars[i] == '\\' && i + 1 < n {
                        out.push_str("  ");
                        i += 2;
                    } else if chars[i] == '\'' {
                        out.push('\'');
                        i += 1;
                        break;
                    } else {
                        out.push(' ');
                        i += 1;
                    }
                }
                continue;
            }
        }
        out.push(c);
        i += 1;
    }
    out
}

fn contains_word(line: &str, word: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = line[start..].find(word) {
        let at = start + pos;
        let before_ok = at == 0
            || !line[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = at + word.len();
        let after_ok = !line[after..]
            .chars()
            .next()
            .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return true;
        }
        start = after;
    }
    false
}

/// True if the comment/attribute block ending just above `line_idx`
/// (or `line_idx`'s own trailing comment) contains a safety note.
fn has_safety_note(orig_lines: &[&str], line_idx: usize) -> bool {
    let noted = |l: &str| l.contains("SAFETY:") || l.contains("# Safety");
    if noted(orig_lines[line_idx]) {
        return true;
    }
    let mut j = line_idx;
    while j > 0 {
        j -= 1;
        let t = orig_lines[j].trim_start();
        if t.is_empty() || t.starts_with("#[") || t.starts_with("#!") || t.starts_with(']') {
            continue;
        }
        if t.starts_with("//") || t.starts_with('*') || t.starts_with("/*") {
            if noted(t) {
                return true;
            }
            continue;
        }
        break;
    }
    false
}

/// For every `.wait(` occurrence in the masked source, the 0-based line
/// index of the line that opened its innermost enclosing block.
/// Returned as `(wait_line_idx, opener_line_idx)` pairs.
fn wait_sites(masked: &str) -> Vec<(usize, usize)> {
    let mut sites = Vec::new();
    let mut openers: Vec<usize> = Vec::new();
    let mut line = 0usize;
    let bytes = masked.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\n' => line += 1,
            b'{' => openers.push(line),
            b'}' => {
                openers.pop();
            }
            b'.' if masked[i..].starts_with(".wait(") => {
                // Timed waits (`.wait_for`, `.wait_timeout`) don't match:
                // the `(` right after `wait` excludes them.
                sites.push((line, openers.last().copied().unwrap_or(line)));
            }
            _ => {}
        }
        i += 1;
    }
    sites
}

/// True if `idx`'s line (or one of the two lines above, for conditions
/// that span lines) starts a `while` or `loop`.
fn is_loop_opener(masked_lines: &[&str], idx: usize) -> bool {
    (idx.saturating_sub(2)..=idx).any(|j| {
        masked_lines
            .get(j)
            .is_some_and(|l| contains_word(l, "while") || contains_word(l, "loop"))
    })
}

/// True if `masked_line` performs a relaxed atomic op on `ident`
/// (i.e. contains `ident.` with a word boundary before it, plus
/// `Ordering::Relaxed`).
fn names_modeled_atomic(masked_line: &str, ident: &str) -> bool {
    if !masked_line.contains("Ordering::Relaxed") {
        return false;
    }
    let pat = format!("{ident}.");
    let mut start = 0;
    while let Some(pos) = masked_line[start..].find(&pat) {
        let at = start + pos;
        let before_ok = at == 0
            || !masked_line[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok {
            return true;
        }
        start = at + pat.len();
    }
    false
}

/// True if the relaxed op on `line_idx` carries a `MODEL:` note: on the
/// line itself, or in the contiguous comment block above it. The walk
/// upward also skips other modeled-relaxed lines, so one comment can
/// cover a contiguous run (e.g. a stats snapshot reading four counters).
fn has_model_note(
    orig_lines: &[&str],
    masked_lines: &[&str],
    idents: &[&str],
    line_idx: usize,
) -> bool {
    if orig_lines[line_idx].contains("MODEL:") {
        return true;
    }
    let mut j = line_idx;
    while j > 0 {
        j -= 1;
        let t = orig_lines[j].trim_start();
        if t.starts_with("//") {
            if t.contains("MODEL:") {
                return true;
            }
            continue;
        }
        if idents
            .iter()
            .any(|id| names_modeled_atomic(masked_lines[j], id))
        {
            continue;
        }
        break;
    }
    false
}

/// Atomic-write / control-flow tokens forbidden inside a seqlock read
/// section (the copied words are garbage until the revalidation check).
fn seqlock_section_offense(masked_line: &str) -> Option<&'static str> {
    if masked_line.contains(".store(") {
        return Some("a store");
    }
    if masked_line.contains(".fetch_") || masked_line.contains("fetch_update") {
        return Some("an atomic RMW");
    }
    if masked_line.contains(".swap(") || masked_line.contains("compare_exchange") {
        return Some("an atomic RMW");
    }
    if contains_word(masked_line, "return") {
        return Some("a return");
    }
    if contains_word(masked_line, "break") {
        return Some("a break");
    }
    None
}

/// The flight-recorder span catalog, as `Debug` names (`PauseDrain`,
/// `SchedJob`, …), taken from the telemetry crate so the lint can never
/// drift from the enum.
fn span_catalog() -> &'static [String] {
    static CATALOG: std::sync::OnceLock<Vec<String>> = std::sync::OnceLock::new();
    CATALOG.get_or_init(|| {
        mcgc_telemetry::SpanKind::ALL
            .iter()
            .map(|k| format!("{k:?}"))
            .collect()
    })
}

/// The pause-phase kinds `collector.rs` must guard (same source of
/// truth as the postmortem's coverage metric).
fn pause_phase_names() -> &'static [String] {
    static PHASES: std::sync::OnceLock<Vec<String>> = std::sync::OnceLock::new();
    PHASES.get_or_init(|| {
        mcgc_telemetry::SpanKind::PAUSE_PHASES
            .iter()
            .map(|k| format!("{k:?}"))
            .collect()
    })
}

const ORDERING_VARIANTS: &[&str] = &[
    "Ordering::Relaxed",
    "Ordering::Acquire",
    "Ordering::Release",
    "Ordering::AcqRel",
    "Ordering::SeqCst",
];

/// Lints one file's source. `rel` is the workspace-relative path with
/// `/` separators; it selects which rules and allowlists apply.
pub fn lint_source(rel: &str, src: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    let masked = mask_source(src);
    let masked_lines: Vec<&str> = masked.lines().collect();
    let orig_lines: Vec<&str> = src.lines().collect();
    let in_membar = rel.starts_with("crates/membar/");
    let ordering_allowed = in_membar || ORDERING_ALLOWLIST.contains(&rel);

    for (idx, line) in masked_lines.iter().enumerate() {
        let lineno = idx + 1;
        if !in_membar {
            let fence_import = line.trim_start().starts_with("use ")
                && line.contains("sync::atomic")
                && contains_word(line, "fence");
            if line.contains("atomic::fence") || line.contains("compiler_fence") || fence_import {
                findings.push(Finding {
                    file: rel.to_string(),
                    line: lineno,
                    rule: "no-raw-fence",
                    message: "raw atomic fence outside crates/membar; use \
                              mcgc_membar::{release_fence, acquire_fence, full_fence}"
                        .to_string(),
                });
            }
        }
        if !ordering_allowed {
            if let Some(v) = ORDERING_VARIANTS.iter().find(|v| line.contains(*v)) {
                findings.push(Finding {
                    file: rel.to_string(),
                    line: lineno,
                    rule: "no-raw-ordering",
                    message: format!(
                        "{v} outside crates/membar and the allowlist; either route \
                         through mcgc_membar or add this file to ORDERING_ALLOWLIST"
                    ),
                });
            }
        }
        if contains_word(line, "static")
            && contains_word(line, "mut")
            && line.contains("static mut")
        {
            findings.push(Finding {
                file: rel.to_string(),
                line: lineno,
                rule: "no-static-mut",
                message: "static mut is forbidden; use an atomic or a lock".to_string(),
            });
        }
        if line.contains("point!(") {
            // The masked line proves this is code (not prose or a string
            // fixture); the original line still carries the literal.
            let site = orig_lines[idx].find("point!(").and_then(|p| {
                let rest = orig_lines[idx][p + "point!(".len()..].trim_start();
                rest.strip_prefix('"')?.split('"').next()
            });
            match site {
                Some(name) if mcgc_fault::site::ALL.contains(&name) => {}
                Some(name) => findings.push(Finding {
                    file: rel.to_string(),
                    line: lineno,
                    rule: "unknown-fault-site",
                    message: format!(
                        "fault site \"{name}\" is not registered in \
                         mcgc_fault::site::ALL; register it (and document it \
                         in DESIGN.md's fault-site catalog) or fix the typo"
                    ),
                }),
                None => findings.push(Finding {
                    file: rel.to_string(),
                    line: lineno,
                    rule: "unknown-fault-site",
                    message: "mcgc_fault::point! requires a string-literal site \
                              name (registered in mcgc_fault::site::ALL) so the \
                              catalog stays checkable"
                        .to_string(),
                }),
            }
        }
        // Closed span catalog: any `SpanKind::CamelCase` token must be a
        // real variant. Associated items (`ALL`, `PAUSE_PHASES`,
        // `from_u8`, …) are not variant-shaped and pass through.
        let mut start = 0;
        while let Some(pos) = line[start..].find("SpanKind::") {
            let at = start + pos + "SpanKind::".len();
            let ident: &str = line[at..]
                .split(|c: char| !c.is_ascii_alphanumeric() && c != '_')
                .next()
                .unwrap_or("");
            start = at + ident.len().max(1);
            let variant_shaped = ident.chars().next().is_some_and(|c| c.is_ascii_uppercase())
                && ident.chars().any(|c| c.is_ascii_lowercase());
            if variant_shaped && !span_catalog().iter().any(|v| v == ident) {
                findings.push(Finding {
                    file: rel.to_string(),
                    line: lineno,
                    rule: "unknown-span-kind",
                    message: format!(
                        "SpanKind::{ident} is not a flight-recorder variant; the span \
                         taxonomy is a closed catalog (mcgc_telemetry::SpanKind::ALL) — \
                         add the variant there (exporter name, docs) or fix the typo"
                    ),
                });
            }
        }
        // Bucket-open confinement: outside the scheduler itself, a
        // bucket variant may only be opened through `Session::run`.
        if rel != "crates/core/src/scheduler.rs" {
            let mut start = 0;
            while let Some(pos) = line[start..].find("Bucket::") {
                let at = start + pos;
                let before_ok = at == 0
                    || !line[..at]
                        .chars()
                        .next_back()
                        .is_some_and(|c| c.is_alphanumeric() || c == '_');
                let ident_at = at + "Bucket::".len();
                let ident: &str = line[ident_at..]
                    .split(|c: char| !c.is_ascii_alphanumeric() && c != '_')
                    .next()
                    .unwrap_or("");
                start = ident_at + ident.len().max(1);
                let variant_shaped = ident.chars().next().is_some_and(|c| c.is_ascii_uppercase())
                    && ident.chars().any(|c| c.is_ascii_lowercase());
                if before_ok && variant_shaped && !line.contains(".run(") {
                    findings.push(Finding {
                        file: rel.to_string(),
                        line: lineno,
                        rule: "bucket-outside-scheduler",
                        message: format!(
                            "Bucket::{ident} used outside a `Session::run` call; bucket \
                             open/close conditions flip only through the scheduler API, \
                             so dispatch the work with `session.run(Bucket::{ident}, …)` \
                             instead of hand-rolling it"
                        ),
                    });
                }
            }
        }
        // Owned-cache confinement: the accessor's `# Safety` contract
        // names its callers, and they live in these files only.
        if line.contains(".owned_mut(") && !OWNED_CACHE_FILES.contains(&rel) {
            findings.push(Finding {
                file: rel.to_string(),
                line: lineno,
                rule: "owned-cache-access",
                message: "OwnedCache::owned_mut called outside its owner (mutator.rs) \
                          and the pause's retire step (collector.rs); a mutator's \
                          allocation cache takes no lock, so any other caller races \
                          its owner"
                    .to_string(),
            });
        }
        if contains_word(line, "unsafe") && !has_safety_note(&orig_lines, idx) {
            findings.push(Finding {
                file: rel.to_string(),
                line: lineno,
                rule: "undocumented-unsafe",
                message: "unsafe without a `// SAFETY:` comment (or `# Safety` doc \
                          section) on the preceding comment block"
                    .to_string(),
            });
        }
    }
    // Unbounded condvar waits must re-check their predicate in a loop.
    if rel != "crates/membar/src/sync.rs" {
        for (wait_idx, opener_idx) in wait_sites(&masked) {
            if !is_loop_opener(&masked_lines, opener_idx) {
                findings.push(Finding {
                    file: rel.to_string(),
                    line: wait_idx + 1,
                    rule: "condvar-wait-not-in-loop",
                    message: "condvar .wait() whose enclosing block is not a \
                              while/loop; spurious and stale wakeups make an \
                              un-re-checked predicate unsound (sched_model's \
                              ParkMissesOpen mutation shows the failure)"
                        .to_string(),
                });
            }
        }
    }
    // Seqlock speculative read sections: bracketed, side-effect-free,
    // and immediately revalidated. Markers are comments, so they are
    // matched on the unmasked source — which is why the lint crate
    // itself (whose docs and fixtures mention the markers) is exempt.
    if !rel.starts_with("crates/lint/") {
        let begin_at = |l: &str| l.contains("seqlock-read: begin");
        let end_at = |l: &str| l.contains("seqlock-read: end");
        let mut open: Option<usize> = None;
        let mut sections = 0usize;
        for (idx, orig) in orig_lines.iter().enumerate() {
            if begin_at(orig) {
                if open.is_some() {
                    findings.push(Finding {
                        file: rel.to_string(),
                        line: idx + 1,
                        rule: "seqlock-read-section",
                        message: "nested `seqlock-read: begin` (previous section \
                                  never ended)"
                            .to_string(),
                    });
                }
                open = Some(idx);
            } else if end_at(orig) {
                let Some(_begin) = open.take() else {
                    findings.push(Finding {
                        file: rel.to_string(),
                        line: idx + 1,
                        rule: "seqlock-read-section",
                        message: "`seqlock-read: end` without a matching begin".to_string(),
                    });
                    continue;
                };
                sections += 1;
                // The revalidating load must follow within the next few
                // code lines (comment/blank lines don't count).
                let mut code_seen = 0;
                let mut revalidated = false;
                for j in idx + 1..orig_lines.len() {
                    let t = orig_lines[j].trim_start();
                    if t.is_empty() || t.starts_with("//") {
                        continue;
                    }
                    if masked_lines[j].contains(".load(") {
                        revalidated = true;
                        break;
                    }
                    code_seen += 1;
                    if code_seen >= 4 {
                        break;
                    }
                }
                if !revalidated {
                    findings.push(Finding {
                        file: rel.to_string(),
                        line: idx + 1,
                        rule: "seqlock-read-section",
                        message: "seqlock read section is not followed by a \
                                  revalidating seq load; without the re-check \
                                  the speculative copy is unvalidated garbage"
                            .to_string(),
                    });
                }
            } else if open.is_some() {
                if let Some(what) = seqlock_section_offense(masked_lines[idx]) {
                    findings.push(Finding {
                        file: rel.to_string(),
                        line: idx + 1,
                        rule: "seqlock-read-section",
                        message: format!(
                            "seqlock read section contains {what}; the copied \
                             words are garbage until the revalidation check, so \
                             nothing may act on them (or skip the check) here"
                        ),
                    });
                }
            }
        }
        if let Some(begin) = open {
            findings.push(Finding {
                file: rel.to_string(),
                line: begin + 1,
                rule: "seqlock-read-section",
                message: "`seqlock-read: begin` never ended".to_string(),
            });
        }
        if SEQLOCK_FILES.contains(&rel) && sections == 0 {
            findings.push(Finding {
                file: rel.to_string(),
                line: 1,
                rule: "seqlock-read-section",
                message: "this file's seqlock reader lost its `seqlock-read: \
                          begin`/`end` markers; the read-window rule can no \
                          longer see it"
                    .to_string(),
            });
        }
    }
    // Relaxed ops on model-mirrored atomics must cite the model.
    if let Some((_, idents, model)) = MODELED_ATOMICS.iter().find(|(f, _, _)| *f == rel) {
        for (idx, line) in masked_lines.iter().enumerate() {
            let Some(ident) = idents.iter().find(|id| names_modeled_atomic(line, id)) else {
                continue;
            };
            if !has_model_note(&orig_lines, &masked_lines, idents, idx) {
                findings.push(Finding {
                    file: rel.to_string(),
                    line: idx + 1,
                    rule: "unmodeled-relaxed",
                    message: format!(
                        "Ordering::Relaxed on `{ident}`, which {model} \
                         (crates/check) mirrors, without a `// MODEL: {model}` \
                         cross-reference; cite the model so it is updated in \
                         the same change"
                    ),
                });
            }
        }
    }
    // The pause path must keep a guard per pause-phase kind: the
    // postmortem's coverage criterion rests on the guards tiling the
    // pause, and losing one degrades silently, not loudly.
    if rel == "crates/core/src/collector.rs" {
        for phase in pause_phase_names() {
            if !masked.contains(&format!("SpanKind::{phase}")) {
                findings.push(Finding {
                    file: rel.to_string(),
                    line: 1,
                    rule: "missing-pause-span",
                    message: format!(
                        "collector.rs no longer opens a SpanKind::{phase} guard; every \
                         SpanKind::PAUSE_PHASES kind must wrap its pause phase or the \
                         postmortem's coverage criterion silently degrades"
                    ),
                });
            }
        }
    }
    findings
}

fn walk(dir: &Path, root: &Path, findings: &mut Vec<Finding>) -> std::io::Result<()> {
    let mut entries: Vec<_> = fs::read_dir(dir)?.collect::<Result<_, _>>()?;
    entries.sort_by_key(|e| e.path());
    for entry in entries {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == ".git" {
                continue;
            }
            walk(&path, root, findings)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            let src = fs::read_to_string(&path)?;
            findings.extend(lint_source(&rel, &src));
        }
    }
    Ok(())
}

/// Lints every `.rs` file under `root` (skipping `target/` and
/// `.git/`). Returns all findings, in path order.
pub fn lint_tree(root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    walk(root, root, &mut findings)?;
    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_comments_strings_and_chars() {
        let src = "let x = \"Ordering::SeqCst\"; // Ordering::SeqCst\nlet c = 'a'; let s: &'static str = r#\"unsafe\"#;\n/* static mut */ let y = 1;\n";
        let m = mask_source(src);
        assert!(!m.contains("Ordering"), "{m}");
        assert!(!m.contains("unsafe"), "{m}");
        assert!(!m.contains("static mut"), "{m}");
        assert!(m.contains("&'static str"), "lifetime survives: {m}");
        assert_eq!(m.lines().count(), src.lines().count());
    }

    #[test]
    fn raw_ordering_is_flagged_outside_allowlist() {
        let src = "fn f(a: &AtomicUsize) { a.load(Ordering::Relaxed); }\n";
        let f = lint_source("crates/core/src/new_file.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "no-raw-ordering");
        // collector.rs is ordering-allowlisted (it still trips the
        // missing-pause-span markers on this synthetic source).
        assert!(lint_source("crates/core/src/collector.rs", src)
            .iter()
            .all(|f| f.rule == "missing-pause-span"));
        assert!(lint_source("crates/membar/src/lib.rs", src).is_empty());
    }

    #[test]
    fn raw_fence_is_flagged_outside_membar() {
        let src = "use std::sync::atomic::fence;\nfn f() { std::sync::atomic::fence(x); }\n";
        let f = lint_source("crates/core/src/tracing.rs", src);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().all(|f| f.rule == "no-raw-fence"));
        assert!(lint_source("crates/membar/src/lib.rs", src).is_empty());
    }

    #[test]
    fn membar_fence_wrappers_are_fine() {
        let src = "use mcgc_membar::release_fence;\nfn f() { release_fence(FenceKind::PacketPublish); }\n";
        assert!(lint_source("crates/packets/src/pool.rs", src).is_empty());
    }

    #[test]
    fn undocumented_unsafe_is_flagged_and_safety_comment_clears_it() {
        let bare = "fn f() { unsafe { g() } }\n";
        let f = lint_source("crates/heap/src/x.rs", bare);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "undocumented-unsafe");

        let commented = "// SAFETY: g has no preconditions here.\nfn f() { unsafe { g() } }\n";
        assert!(lint_source("crates/heap/src/x.rs", commented).is_empty());

        let trailing = "let v = unsafe { g() }; // SAFETY: see above.\n";
        assert!(lint_source("crates/heap/src/x.rs", trailing).is_empty());

        let doc = "/// Frees it.\n///\n/// # Safety\n/// Caller must own `p`.\npub unsafe fn free(p: *mut u8) {}\n";
        assert!(lint_source("crates/heap/src/x.rs", doc).is_empty());

        let in_string = "let s = \"unsafe\";\n";
        assert!(lint_source("crates/heap/src/x.rs", in_string).is_empty());
    }

    #[test]
    fn fault_sites_must_be_registered_literals() {
        let ok = "if mcgc_fault::point!(\"heap.refill\") { return false; }\n";
        assert!(lint_source("crates/heap/src/heap.rs", ok).is_empty());

        let typo = "if mcgc_fault::point!(\"heap.refil\") { return false; }\n";
        let f = lint_source("crates/heap/src/heap.rs", typo);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "unknown-fault-site");
        assert!(f[0].message.contains("heap.refil"), "{}", f[0].message);

        let non_literal = "if mcgc_fault::point!(SITE_NAME) { return false; }\n";
        let f = lint_source("crates/heap/src/heap.rs", non_literal);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "unknown-fault-site");
        assert!(f[0].message.contains("string-literal"), "{}", f[0].message);

        let prose = "// mark the branch with a point!(\"anything\") site\n";
        assert!(lint_source("crates/heap/src/heap.rs", prose).is_empty());
    }

    #[test]
    fn span_kinds_must_be_in_catalog() {
        let ok = "let _g = rec.span(SpanKind::PauseDrain, 0);\n";
        assert!(lint_source("crates/core/src/x.rs", ok).is_empty());

        let assoc = "for k in SpanKind::ALL { let _ = SpanKind::from_u8(k as u8); }\n";
        assert!(lint_source("crates/core/src/x.rs", assoc).is_empty());

        let typo = "let _g = rec.span(SpanKind::PauseDrian, 0);\n";
        let f = lint_source("crates/core/src/x.rs", typo);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "unknown-span-kind");
        assert!(f[0].message.contains("PauseDrian"), "{}", f[0].message);

        let prose = "// imagine a SpanKind::MadeUpPhase here\n";
        assert!(lint_source("crates/core/src/x.rs", prose).is_empty());
    }

    #[test]
    fn collector_must_guard_every_pause_phase() {
        // A collector.rs that opens only some of the phase guards is
        // flagged once per missing phase.
        let partial = "fn run_pause() { let _a = s.span(SpanKind::PauseRetire, 0); \
                       let _b = s.span(SpanKind::PauseDrain, 0); }\n";
        let f = lint_source("crates/core/src/collector.rs", partial);
        let missing: Vec<_> = f
            .iter()
            .filter(|f| f.rule == "missing-pause-span")
            .collect();
        assert_eq!(missing.len(), 6, "{missing:?}");
        assert!(missing.iter().any(|f| f.message.contains("PauseSweep")));

        // Any other file is exempt from the marker requirement.
        assert!(lint_source("crates/core/src/other.rs", partial).is_empty());
    }

    #[test]
    fn bucket_variants_confined_to_session_run() {
        let ok = "fn f(s: &Session) { s.run(Bucket::Drain, |w| work(w)); }\n";
        assert!(lint_source("crates/core/src/collector.rs", ok)
            .iter()
            .all(|f| f.rule == "missing-pause-span"));

        // Hand-rolled dispatch keyed on a bucket variant is flagged:
        // open/close conditions flip only via the scheduler API.
        let bad = "fn f() { if bucket == Bucket::Drain { spawn_workers(); } }\n";
        let f = lint_source("crates/core/src/x.rs", bad);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "bucket-outside-scheduler");
        assert!(f[0].message.contains("Bucket::Drain"), "{}", f[0].message);

        // Associated items are not variant-shaped and pass through.
        let assoc = "for i in 0..Bucket::COUNT { let b = Bucket::from_index(i); }\n";
        assert!(lint_source("crates/core/src/x.rs", assoc).is_empty());

        // The scheduler itself (impl blocks, tests) is exempt.
        assert!(lint_source("crates/core/src/scheduler.rs", bad).is_empty());

        // Prose and strings never trip the rule.
        let prose = "// match on Bucket::Straggler here would be wrong\n";
        assert!(lint_source("crates/core/src/x.rs", prose).is_empty());
    }

    #[test]
    fn owned_cache_access_confined_to_owner_and_retire() {
        let call = "// SAFETY: owner.\nlet c = unsafe { m.cache.owned_mut() };\n";
        for ok in OWNED_CACHE_FILES {
            let f = lint_source(ok, call);
            assert!(
                f.iter().all(|f| f.rule != "owned-cache-access"),
                "{ok}: {f:?}"
            );
        }

        // Any third caller races the owner: flagged, even with a SAFETY
        // comment, and in the cell's own module too.
        for bad in [
            "crates/core/src/tracing.rs",
            "crates/core/src/roots.rs",
            "tests/x.rs",
        ] {
            let f = lint_source(bad, call);
            assert_eq!(f.len(), 1, "{bad}: {f:?}");
            assert_eq!(f[0].rule, "owned-cache-access");
            assert_eq!(f[0].line, 2);
        }

        // The definition is not a call, and prose never trips the rule.
        let def = "/// # Safety\n/// Owner only.\npub(crate) unsafe fn owned_mut(&self) {}\n";
        assert!(lint_source("crates/core/src/roots.rs", def).is_empty());
        let prose = "// never call .owned_mut( from a tracer\n";
        assert!(lint_source("crates/core/src/tracing.rs", prose).is_empty());
    }

    #[test]
    fn static_mut_is_flagged() {
        let src = "static mut COUNTER: usize = 0;\n";
        let f = lint_source("crates/core/src/x.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "no-static-mut");
    }

    #[test]
    fn masking_survives_adversarial_literals() {
        // Raw string with hashes whose body contains a quote-hash that
        // must NOT close it early.
        let m = mask_source("let s = r##\"a \"# b\"##; unsafe { g() }\n");
        assert!(!m.contains("a \"# b"), "{m}");
        assert!(m.contains("unsafe"), "code after the literal survives: {m}");

        // Raw string containing comment openers and `unsafe`.
        let src = "let s = r\"// */ unsafe\"; static mut X: u8 = 0;\n";
        let f = lint_source("crates/core/src/x.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "no-static-mut");

        // Block comment containing a raw-string opener: the comment must
        // end at `*/`, not be swallowed by a phantom string.
        let src = "/* r#\" */ static mut X: u8 = 0;\n";
        let f = lint_source("crates/core/src/x.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "no-static-mut");

        // Nested block comments close at the matching depth.
        let src = "/* a /* b */ c */ static mut X: u8 = 0;\n";
        let f = lint_source("crates/core/src/x.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");

        // A line comment with an unterminated quote ends at the newline.
        let src = "// \"unterminated\nstatic mut X: u8 = 0;\n";
        let f = lint_source("crates/core/src/x.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");

        // A char literal holding a double quote must not open a string.
        let src = "let q = '\"'; let s = \"unsafe\";\n";
        assert!(lint_source("crates/core/src/x.rs", src).is_empty());

        // Byte raw strings mask like raw strings.
        let src = "let b = br#\"unsafe // Ordering::SeqCst\"#;\n";
        assert!(lint_source("crates/core/src/x.rs", src).is_empty());

        // `\\` before the closing quote is an escaped backslash, not an
        // escaped quote: the string ends and the `unsafe` after is code.
        let src = "let s = \"a\\\\\"; unsafe { g() }\n";
        let f = lint_source("crates/core/src/x.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "undocumented-unsafe");

        // Multi-line raw strings keep the line count aligned.
        let src = "let s = r#\"one\ntwo unsafe\"#;\nlet x = 1;\n";
        let m = mask_source(src);
        assert_eq!(m.lines().count(), src.lines().count());
        assert!(!m.contains("unsafe"), "{m}");
    }

    #[test]
    fn condvar_wait_requires_a_predicate_loop() {
        let good = "fn f() {\n    while p {\n        cv.wait(&mut g);\n    }\n}\n";
        assert!(lint_source("crates/core/src/x.rs", good).is_empty());

        let good_loop =
            "fn f() {\n    loop {\n        if c {\n            break;\n        }\n        cv.wait(&mut g);\n    }\n}\n";
        assert!(lint_source("crates/core/src/x.rs", good_loop).is_empty());

        // A condition split across lines still counts as a loop opener.
        let split =
            "fn f() {\n    while p\n        && q\n    {\n        cv.wait(&mut g);\n    }\n}\n";
        assert!(lint_source("crates/core/src/x.rs", split).is_empty());

        let bad_if = "fn f() {\n    if p {\n        cv.wait(&mut g);\n    }\n}\n";
        let f = lint_source("crates/core/src/x.rs", bad_if);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "condvar-wait-not-in-loop");
        assert_eq!(f[0].line, 3);

        let bare = "fn f() {\n    cv.wait(&mut g);\n}\n";
        let f = lint_source("crates/core/src/x.rs", bare);
        assert_eq!(f.len(), 1, "{f:?}");

        // Timed waits are exempt: their callers poll.
        let timed = "fn f() {\n    cv.wait_for(&mut g, d);\n    cv.wait_timeout(g, d);\n}\n";
        assert!(lint_source("crates/core/src/x.rs", timed).is_empty());

        // The wrapper implementation itself is exempt.
        assert!(lint_source("crates/membar/src/sync.rs", bare).is_empty());
    }

    #[test]
    fn seqlock_sections_are_bracketed_pure_and_revalidated() {
        let good = "fn r() -> Option<u64> {\n\
                    // seqlock-read: begin\n\
                    let a = slot.val.load(Ordering::Relaxed);\n\
                    // seqlock-read: end\n\
                    if slot.seq.load(Ordering::Acquire) != want {\n\
                        return None;\n\
                    }\n\
                    Some(a)\n\
                    }\n";
        assert!(
            lint_source("crates/telemetry/src/spans.rs", good).is_empty(),
            "{:?}",
            lint_source("crates/telemetry/src/spans.rs", good)
        );

        // A store inside the window is flagged.
        let store = good.replace(
            "let a = slot.val.load(Ordering::Relaxed);",
            "slot.val.store(0, Ordering::Relaxed);",
        );
        let f = lint_source("crates/telemetry/src/spans.rs", &store);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "seqlock-read-section");
        assert!(f[0].message.contains("a store"), "{}", f[0].message);

        // So is an early return on the speculative copy.
        let ret = good.replace(
            "let a = slot.val.load(Ordering::Relaxed);",
            "if bad { return None; }",
        );
        let f = lint_source("crates/telemetry/src/spans.rs", &ret);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("a return"), "{}", f[0].message);

        // A section with no revalidating load after it is flagged.
        let unvalidated = "fn r() {\n\
                           // seqlock-read: begin\n\
                           let a = slot.val.load(Ordering::Relaxed);\n\
                           // seqlock-read: end\n\
                           f(a);\n\
                           g(a);\n\
                           h(a);\n\
                           i(a);\n\
                           }\n";
        let f = lint_source("crates/telemetry/src/spans.rs", unvalidated);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("revalidating"), "{}", f[0].message);

        // Unbalanced markers are findings in their own right.
        let dangling_end = "fn r() {\n// seqlock-read: end\n}\n";
        let f = lint_source("crates/core/src/x.rs", dangling_end);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("without a matching begin"));

        let never_ended = "fn r() {\n// seqlock-read: begin\nlet a = 1;\n}\n";
        let f = lint_source("crates/core/src/x.rs", never_ended);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("never ended"));

        // The seqlock files must keep at least one marked section.
        let markerless = "fn r() {}\n";
        for file in SEQLOCK_FILES {
            let f = lint_source(file, markerless);
            assert_eq!(f.len(), 1, "{file}: {f:?}");
            assert_eq!(f[0].rule, "seqlock-read-section");
            assert!(f[0].message.contains("lost its"), "{}", f[0].message);
        }
        // Other files aren't required to have sections.
        assert!(lint_source("crates/core/src/x.rs", markerless).is_empty());
    }

    #[test]
    fn modeled_relaxed_atomics_must_cite_their_model() {
        let bare = "fn f(pool: &P) {\n    pool.count.fetch_add(1, Ordering::Relaxed);\n}\n";
        let f = lint_source("crates/packets/src/pool.rs", bare);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "unmodeled-relaxed");
        assert!(f[0].message.contains("pool_model"), "{}", f[0].message);

        let cited = "fn f(pool: &P) {\n    // MODEL: pool_model — §4.3 counter order.\n    pool.count.fetch_add(1, Ordering::Relaxed);\n}\n";
        assert!(lint_source("crates/packets/src/pool.rs", cited).is_empty());

        let trailing =
            "fn f(pool: &P) {\n    pool.count.fetch_add(1, Ordering::Relaxed); // MODEL: pool_model\n}\n";
        assert!(lint_source("crates/packets/src/pool.rs", trailing).is_empty());

        // One comment covers a contiguous run of modeled lines.
        let run = "fn f(p: &P) {\n\
                   // MODEL: pool_model — racy snapshot.\n\
                   let a = p.count.load(Ordering::Relaxed);\n\
                   let b = q.count.load(Ordering::Relaxed);\n\
                   }\n";
        assert!(lint_source("crates/packets/src/pool.rs", run).is_empty());

        // ...but a non-modeled code line breaks the chain.
        let broken = "fn f(p: &P) {\n\
                      // MODEL: pool_model\n\
                      let a = p.count.load(Ordering::Relaxed);\n\
                      let x = 1;\n\
                      let b = q.count.load(Ordering::Relaxed);\n\
                      }\n";
        let f = lint_source("crates/packets/src/pool.rs", broken);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 5);

        // Idents only match whole names: `next_checkout` is not `next`,
        // and other files' atomics aren't in pool.rs's table.
        let other = "fn f(p: &P) {\n    p.next_checkout.fetch_add(1, Ordering::Relaxed);\n}\n";
        assert!(lint_source("crates/packets/src/pool.rs", other).is_empty());
        let elsewhere = "fn f(p: &P) {\n    p.count.fetch_add(1, Ordering::Relaxed);\n}\n";
        assert!(lint_source("crates/heap/src/heap.rs", elsewhere).is_empty());

        // Non-Relaxed orderings on modeled atomics need no citation.
        let acq = "fn f(s: &S) -> u64 {\n    s.seq.load(Ordering::Acquire)\n}\n";
        let f = lint_source("crates/telemetry/src/spans.rs", acq);
        assert!(f.iter().all(|f| f.rule == "seqlock-read-section"), "{f:?}");
    }

    #[test]
    fn the_real_tree_is_clean() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let findings = lint_tree(&root).expect("walk workspace");
        assert!(
            findings.is_empty(),
            "lint findings in tree:\n{}",
            findings
                .iter()
                .map(|f| f.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
