//! The corruption corpus: every class of checkpoint damage must map to
//! its own stable `BBMG0xx` code, so operators can triage from the code
//! alone. A seeded random bit-flip sweep (`--ignored`) backs the
//! hand-built classes with volume. A second, default-suite sweep feeds
//! seeded bit flips and truncations to every other JSON document decoder
//! and to the trace decoders (strict CSV and text, the lenient CSV path
//! through repair into the learner, and resealed `bbmg-btrace/1` bodies):
//! none may panic, a damaged sealed corpus report never audits clean, and
//! a truncated benchmark artifact always audits with an error. A
//! benchmark artifact that parses but breaks its schema's rules is
//! BBMG011.

use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

use bbmg_audit::{audit_paths, AuditOptions, AuditReport};
use bbmg_core::{
    learn_with, seal, Checkpoint, IncrementalLearner, LearnOptions, OnInconsistent,
    CHECKPOINT_SCHEMA, CORPUS_SCHEMA,
};
use bbmg_lattice::DependencyFunction;
use bbmg_obs::{Metrics, MetricsSnapshot, NoopObserver};
use bbmg_serve::{parse_line, HealthSnapshot, Line, Roster, RosterEntry, ShardHealth, WireKind};
use bbmg_trace::{
    btrace_checksum, parse_btrace, parse_csv, parse_csv_raw, parse_trace, repair_with,
    write_btrace, write_csv, write_trace, RepairOptions,
};
use bbmg_workloads::simple;
use rand::{Rng, SeedableRng};

/// Learns the paper's 4-task worked example to completion and
/// checkpoints it: 5 incomparable hypotheses, one packed word each.
fn base_checkpoint() -> Checkpoint {
    let trace = simple::figure_2_trace();
    let mut learner = IncrementalLearner::new(trace.task_count(), LearnOptions::exact());
    for period in trace.periods() {
        learner.push_period(period).expect("clean trace");
    }
    learner.checkpoint()
}

/// The on-disk form `Checkpoint::save` writes.
fn base_doc() -> String {
    format!("{}\n", base_checkpoint().to_json())
}

/// Re-seals a hand-mutated checkpoint with a fresh checksum, so the
/// mutation survives past the checksum gate to the deeper passes.
fn reseal(doc: &str) -> String {
    reseal_as(CHECKPOINT_SCHEMA, doc)
}

/// Re-seals a hand-mutated document of `schema` (see [`reseal`]).
fn reseal_as(schema: &str, doc: &str) -> String {
    let marker = "\"payload\":";
    let start = doc.find(marker).expect("payload marker") + marker.len();
    let trimmed = doc.trim_end();
    format!("{}\n", seal(schema, &trimmed[start..trimmed.len() - 1]))
}

/// Writes `bytes` at `rel` (a name with extension, optionally under a
/// subdirectory) in the scratch directory and audits that one file.
fn audit_file(rel: &str, bytes: &[u8]) -> AuditReport {
    let dir = std::env::temp_dir().join(format!("bbmg-audit-mutation-{}", std::process::id()));
    let path = dir.join(rel);
    fs::create_dir_all(path.parent().expect("scratch dir")).expect("scratch dir");
    fs::write(&path, bytes).expect("write artifact");
    audit_paths(&[path], &AuditOptions::default())
}

/// Writes `text` as `<name>.ckpt` in a scratch directory and audits it.
fn audit_text(name: &str, text: &str) -> AuditReport {
    audit_file(&format!("{name}.ckpt"), text.as_bytes())
}

fn codes(report: &AuditReport) -> Vec<&'static str> {
    report.diagnostics.iter().map(|d| d.code.id).collect()
}

/// Asserts the corruption is detected with exactly the expected lead
/// code (the first diagnostic is the one triage reads).
fn assert_detects(name: &str, text: &str, expected: &str) {
    let report = audit_text(name, text);
    let found = codes(&report);
    assert!(
        found.first() == Some(&expected),
        "{name}: expected lead code {expected}, got {found:?}"
    );
}

/// Replaces cell `cell` of the first hypothesis's first word with
/// `code`, returning the resealed document.
fn with_mutated_word(mutate: impl Fn(u64) -> u64) -> String {
    let ckpt = base_checkpoint();
    let word = ckpt.hypotheses[0].packed_words()[0];
    let doc = base_doc();
    let mutated = doc.replacen(
        &format!("{word:016x}"),
        &format!("{:016x}", mutate(word)),
        1,
    );
    assert_ne!(doc, mutated, "mutation must change the document");
    reseal(&mutated)
}

fn set_cell(word: u64, cell: usize, code: u64) -> u64 {
    (word & !(0b111 << (cell * 3))) | (code << (cell * 3))
}

#[test]
fn pristine_checkpoint_is_clean() {
    let report = audit_text("pristine", &base_doc());
    assert!(codes(&report).is_empty(), "{:?}", report.diagnostics);
    assert_eq!(report.files_audited, 1);
}

#[test]
fn truncation_is_not_json() {
    let doc = base_doc();
    assert_detects("truncated", &doc[..doc.len() / 2], "BBMG003");
}

#[test]
fn flipped_checksum_digit_is_checksum_mismatch() {
    let doc = base_doc();
    let marker = "\"checksum\":\"";
    let at = doc.find(marker).expect("checksum field") + marker.len();
    let original = doc.as_bytes()[at];
    let flipped = if original == b'f' { b'0' } else { b'f' };
    let mut bytes = doc.into_bytes();
    bytes[at] = flipped;
    assert_detects(
        "checksum",
        &String::from_utf8(bytes).expect("still utf-8"),
        "BBMG010",
    );
}

#[test]
fn future_schema_version_is_rejected() {
    assert_detects(
        "schema",
        &base_doc().replacen("bbmg-ckpt/1", "bbmg-ckpt/2", 1),
        "BBMG004",
    );
}

#[test]
fn unknown_payload_field_is_malformed() {
    let doc = base_doc().replacen("\"payload\":{", "\"payload\":{\"extra\":0,", 1);
    assert_detects("extra-field", &reseal(&doc), "BBMG011");
}

#[test]
fn lone_q_cell_is_invalid_cell() {
    // Cell 1 is (row 0, col 1): off-diagonal, so the lone-Q code 0b100
    // is the first (and only) violation the scan finds.
    assert_detects(
        "invalid-cell",
        &with_mutated_word(|w| set_cell(w, 1, 0b100)),
        "BBMG012",
    );
}

#[test]
fn high_padding_bit_is_dirty_padding() {
    // 4 tasks use 16 of 21 lanes; bit 63 is always padding.
    assert_detects("padding", &with_mutated_word(|w| w | (1 << 63)), "BBMG013");
}

#[test]
fn missing_word_is_word_count() {
    let ckpt = base_checkpoint();
    let word = ckpt.hypotheses[0].packed_words()[0];
    let doc = base_doc().replacen(&format!("\"words\":[\"{word:016x}\"]"), "\"words\":[]", 1);
    assert_detects("word-count", &reseal(&doc), "BBMG014");
}

#[test]
fn rewritten_diagonal_is_diagonal_violation() {
    // Cell 0 is (0, 0); any code other than parallel is a violation
    // (0b001 is a *valid* cell value, so BBMG012 must not fire instead).
    assert_detects(
        "diagonal",
        &with_mutated_word(|w| set_cell(w, 0, 0b001)),
        "BBMG015",
    );
}

#[test]
fn doctored_hypothesis_fingerprint_is_detected() {
    let doc = base_doc();
    let marker = "{\"fingerprint\":\"";
    let at = doc.find(marker).expect("hypothesis entry") + marker.len();
    let original = doc.as_bytes()[at];
    let flipped = if original == b'f' { b'0' } else { b'f' };
    let mut bytes = doc.into_bytes();
    bytes[at] = flipped;
    let doc = String::from_utf8(bytes).expect("still utf-8");
    assert_detects("fingerprint", &reseal(&doc), "BBMG016");
}

#[test]
fn doctored_antichain_fingerprint_is_detected() {
    let doc = base_doc();
    let marker = "\"antichain_fingerprint\":\"";
    let at = doc.find(marker).expect("antichain field") + marker.len();
    let original = doc.as_bytes()[at];
    let flipped = if original == b'f' { b'0' } else { b'f' };
    let mut bytes = doc.into_bytes();
    bytes[at] = flipped;
    let doc = String::from_utf8(bytes).expect("still utf-8");
    assert_detects("antichain-fp", &reseal(&doc), "BBMG017");
}

#[test]
fn non_canonical_bytes_are_detected() {
    // A leading space parses identically (and the checksum, which covers
    // only the payload bytes, still matches) — but the writer never
    // emits it, so the document is not the writer's output.
    assert_detects("canonical", &format!(" {}", base_doc()), "BBMG018");
}

#[test]
fn dominated_hypothesis_breaks_the_antichain() {
    // Append ⊥, which is below every learned hypothesis. Serializing via
    // to_json stamps *consistent* fingerprints, so only the antichain
    // pass can catch it.
    let mut ckpt = base_checkpoint();
    ckpt.hypotheses.push(DependencyFunction::bottom(ckpt.tasks));
    assert_detects("dominated", &format!("{}\n", ckpt.to_json()), "BBMG020");
}

#[test]
fn duplicated_hypothesis_breaks_the_antichain() {
    let mut ckpt = base_checkpoint();
    ckpt.hypotheses.push(ckpt.hypotheses[0].clone());
    assert_detects("duplicate", &format!("{}\n", ckpt.to_json()), "BBMG021");
}

#[test]
fn rewritten_bookkeeping_is_flagged() {
    // Claim one more consumed period than the stats account for.
    let ckpt = base_checkpoint();
    let doc = base_doc().replacen(
        &format!("\"pushed_periods\":{}", ckpt.pushed_periods),
        &format!("\"pushed_periods\":{}", ckpt.pushed_periods + 1),
        1,
    );
    let report = audit_text("bookkeeping", &reseal(&doc));
    assert!(
        codes(&report).contains(&"BBMG019"),
        "{:?}",
        report.diagnostics
    );
    assert_eq!(report.errors(), 0, "bookkeeping drift is a warning");
    assert!(!report.is_clean(true));
}

/// Serialized sample binary trace the btrace mutations start from.
fn base_btrace() -> Vec<u8> {
    write_btrace(&simple::figure_2_trace())
}

/// Re-seals a hand-mutated btrace body under the 22-byte header.
fn reseal_btrace(body: &[u8]) -> Vec<u8> {
    let mut out = base_btrace()[..14].to_vec();
    out.extend_from_slice(&btrace_checksum(body).to_le_bytes());
    out.extend_from_slice(body);
    out
}

/// A sealed single-entry corpus report document (with trailing newline).
fn corpus_doc(counts: (usize, usize, usize, usize), dedup: f64, entry: &str) -> String {
    let (traces, full, prefix, misses) = counts;
    let payload = format!(
        "{{\"traces\":{traces},\"cache_full_hits\":{full},\"cache_prefix_hits\":{prefix},\
         \"cache_misses\":{misses},\"dedup_ratio\":{dedup:.6},\"elapsed_micros\":10,\
         \"traces_per_sec\":1.000,\"threads\":1,\"entries\":[{entry}]}}"
    );
    format!("{}\n", seal(CORPUS_SCHEMA, &payload))
}

/// One report row claiming `hit` with model fingerprint `fp`.
fn corpus_entry(hit: &str, fp: u64) -> String {
    format!(
        "{{\"file\":\"a.csv\",\"tasks\":4,\"periods\":6,\"hit\":\"{hit}\",\"seeded_periods\":0,\
         \"model_fingerprint\":\"{fp:016x}\",\"hypotheses\":5,\"converged\":false}}"
    )
}

#[test]
fn pristine_btrace_is_clean() {
    let report = audit_file("pristine.btrace", &base_btrace());
    assert!(codes(&report).is_empty(), "{:?}", report.diagnostics);
    assert_eq!(report.files_audited, 1);
}

#[test]
fn truncated_btrace_header_is_detected() {
    let bytes = base_btrace();
    let report = audit_file("truncated.btrace", &bytes[..15]);
    assert_eq!(codes(&report), ["BBMG060"], "{:?}", report.diagnostics);
}

#[test]
fn flipped_btrace_body_bit_is_checksum_mismatch() {
    let mut bytes = base_btrace();
    let at = bytes.len() - 3;
    bytes[at] ^= 0x40;
    let report = audit_file("flipped.btrace", &bytes);
    assert_eq!(codes(&report), ["BBMG061"], "{:?}", report.diagnostics);
}

#[test]
fn resealed_btrace_trailing_bytes_are_body_malformed() {
    let mut body = base_btrace()[22..].to_vec();
    body.push(0xAA);
    let report = audit_file("trailing.btrace", &reseal_btrace(&body));
    assert_eq!(codes(&report), ["BBMG062"], "{:?}", report.diagnostics);
}

#[test]
fn sniffed_btrace_without_extension_is_still_audited() {
    // A walked-in or renamed file keeps its magic; the sniff must route
    // it to the btrace pass, not the UTF-8 document path.
    let mut bytes = base_btrace();
    let at = bytes.len() - 3;
    bytes[at] ^= 0x40;
    let report = audit_file("renamed.json", &bytes);
    assert_eq!(codes(&report), ["BBMG061"], "{:?}", report.diagnostics);
}

#[test]
fn pristine_corpus_report_is_clean() {
    let doc = corpus_doc((1, 0, 0, 1), 0.0, &corpus_entry("miss", 0xDEAD));
    let report = audit_file("corpus-clean/report.json", doc.as_bytes());
    assert!(codes(&report).is_empty(), "{:?}", report.diagnostics);
}

#[test]
fn torn_corpus_seal_is_malformed() {
    let doc = corpus_doc((1, 0, 0, 1), 0.0, &corpus_entry("miss", 0xDEAD));
    let marker = "\"checksum\":\"";
    let at = doc.find(marker).expect("checksum field") + marker.len();
    let original = doc.as_bytes()[at];
    let flipped = if original == b'f' { b'0' } else { b'f' };
    let mut bytes = doc.into_bytes();
    bytes[at] = flipped;
    let report = audit_file("corpus-torn/report.json", &bytes);
    assert_eq!(codes(&report), ["BBMG070"], "{:?}", report.diagnostics);
}

#[test]
fn upper_case_corpus_checksum_is_malformed() {
    // One flipped case bit turns `a` into `A`: the same number to a hex
    // reader, but not the seal the writer stamped.
    let doc = corpus_doc((1, 0, 0, 1), 0.0, &corpus_entry("miss", 0xDEAD));
    let marker = "\"checksum\":\"";
    let at = doc.find(marker).expect("checksum field") + marker.len();
    let upper = format!(
        "{}{}{}",
        &doc[..at],
        doc[at..at + 16].to_uppercase(),
        &doc[at + 16..]
    );
    assert_ne!(upper, doc, "the checksum spells at least one hex letter");
    let report = audit_file("corpus-upper/report.json", upper.as_bytes());
    assert_eq!(codes(&report), ["BBMG070"], "{:?}", report.diagnostics);
}

#[test]
fn corpus_count_drift_is_bookkeeping() {
    // Two traces claimed, one entry row, and a hit sum of one.
    let doc = corpus_doc((2, 0, 0, 1), 0.5, &corpus_entry("miss", 0xDEAD));
    let report = audit_file("corpus-drift/report.json", doc.as_bytes());
    assert_eq!(codes(&report), ["BBMG071"], "{:?}", report.diagnostics);
    assert_eq!(report.errors(), 0, "count drift is a warning");
    assert!(!report.is_clean(true));
}

#[test]
fn resolvable_corpus_hit_is_clean() {
    let ckpt = base_checkpoint();
    let doc = corpus_doc((1, 1, 0, 0), 1.0, &corpus_entry("full", ckpt.fingerprint()));
    audit_file("corpus-resolved/model.ckpt", base_doc().as_bytes());
    let report = audit_file("corpus-resolved/report.json", doc.as_bytes());
    assert!(codes(&report).is_empty(), "{:?}", report.diagnostics);
}

#[test]
fn unresolvable_corpus_hit_is_detected() {
    // A sibling checkpoint exists, so resolution runs — and fails for a
    // fingerprint no checkpoint holds.
    let doc = corpus_doc((1, 1, 0, 0), 1.0, &corpus_entry("full", 0xDEAD_BEEF));
    audit_file("corpus-unresolved/model.ckpt", base_doc().as_bytes());
    let report = audit_file("corpus-unresolved/report.json", doc.as_bytes());
    assert_eq!(codes(&report), ["BBMG072"], "{:?}", report.diagnostics);
}

/// The first `"key":value` member of `doc`, as written.
fn member<'a>(doc: &'a str, key: &str) -> &'a str {
    let start = doc.find(&format!("\"{key}\":")).expect("key present");
    let len = doc[start..].find([',', '}']).expect("member ends");
    &doc[start..start + len]
}

/// One strict decoder in the cross-decoder table: the writer's own
/// document, the adjacent members the edits touch, and how to decode.
struct StrictCase {
    name: &'static str,
    doc: String,
    /// Re-stamp the envelope's checksum after each edit, so the edit
    /// reaches the reader behind it.
    sealed: Option<&'static str>,
    /// A u64 member and the member written right after it.
    keys: (&'static str, &'static str),
    /// A member holding 16 hex digits, if the schema has one.
    hex: Option<&'static str>,
    /// Audited under this file name, the lead code a refusal carries.
    file: &'static str,
    code: &'static str,
    accepts: fn(&str) -> bool,
}

/// Every strict decoder refuses the same six edits of its writer's own
/// document, with a typed error and, through the audit, a BBMG code:
/// two adjacent members swapped, a key renamed, dropped or duplicated, a
/// hex digit upper-cased, and `1e30` in a u64 member.
#[test]
fn strict_decoders_refuse_what_no_writer_produces() {
    let mut checkpoint = base_checkpoint();
    checkpoint.elapsed = std::time::Duration::ZERO;
    let mut roster = Roster::new();
    roster.record(RosterEntry {
        source: "bus0".into(),
        checkpoint: "bus0.ckpt".into(),
        restarts: 1,
        periods: 40,
        state: "exact".into(),
    });
    let health = HealthSnapshot {
        seq: 3,
        uptime_us: 1_973,
        lines: 12,
        shards: Vec::new(),
    };
    let mut metrics = Metrics::new();
    learn_with(
        &simple::figure_2_trace(),
        LearnOptions::exact(),
        &mut metrics,
    )
    .expect("clean");
    let entries = corpus_entry("miss", 0x6858_1e27_390c_d966);
    let cases = [
        StrictCase {
            name: "checkpoint",
            doc: format!("{}\n", checkpoint.to_json()),
            sealed: Some(CHECKPOINT_SCHEMA),
            keys: ("tasks", "pushed_periods"),
            hex: Some("checksum"),
            file: "strict/state.ckpt",
            code: "BBMG011",
            accepts: |text| Checkpoint::parse_json(text).is_ok(),
        },
        StrictCase {
            name: "roster",
            doc: format!("{}\n", roster.to_json()),
            sealed: None,
            keys: ("restarts", "periods"),
            hex: None,
            file: "strict/roster.json",
            code: "BBMG011",
            accepts: |text| Roster::parse_json(text).is_ok(),
        },
        StrictCase {
            name: "health",
            doc: health.to_json(),
            sealed: None,
            keys: ("seq", "uptime_us"),
            hex: None,
            file: "strict/health.json",
            code: "BBMG011",
            accepts: |text| HealthSnapshot::parse_json(text).is_ok(),
        },
        StrictCase {
            name: "metrics",
            doc: metrics.snapshot().to_json(),
            sealed: None,
            keys: ("periods", "messages"),
            hex: None,
            file: "strict/metrics.json",
            code: "BBMG011",
            accepts: |text| MetricsSnapshot::parse_json(text).is_ok(),
        },
        StrictCase {
            name: "corpus report",
            doc: corpus_doc((1, 0, 0, 1), 0.0, &entries),
            sealed: Some(CORPUS_SCHEMA),
            keys: ("traces", "cache_full_hits"),
            hex: Some("model_fingerprint"),
            file: "strict-corpus/report.json",
            code: "BBMG070",
            accepts: |text| audit_file("strict-corpus/report.json", text.as_bytes()).is_clean(true),
        },
        StrictCase {
            name: "bench artifact",
            doc: BENCH_ARTIFACTS[0].1.to_owned(),
            sealed: None,
            keys: ("cpu_threads", "iterations"),
            hex: None,
            file: "strict-bench/BENCH_learner.json",
            code: "BBMG011",
            accepts: |text| {
                bbmg_obs::json::parse(text).is_ok_and(|doc| bbmg_bench::rules::check(&doc).is_ok())
            },
        },
    ];
    for case in cases {
        assert!(
            (case.accepts)(&case.doc),
            "{}: the writer's document",
            case.name
        );
        let field = member(&case.doc, case.keys.0);
        let next = member(&case.doc, case.keys.1);
        let pair = format!("{field},{next}");
        assert!(
            case.doc.contains(&pair),
            "{}: {pair} are adjacent",
            case.name
        );
        let key = &field[..field.find(':').expect("a member")];
        let renamed = format!("{}_x\"", &key[..key.len() - 1]);
        let mut edits = vec![
            (
                "swap",
                case.doc.replacen(&pair, &format!("{next},{field}"), 1),
            ),
            ("rename", case.doc.replacen(key, &renamed, 1)),
            ("drop", case.doc.replacen(&format!("{field},"), "", 1)),
            (
                "duplicate",
                case.doc.replacen(field, &pair.replacen(next, field, 1), 1),
            ),
            ("1e30", case.doc.replacen(field, &format!("{key}:1e30"), 1)),
        ];
        if let Some(schema) = case.sealed {
            for (_, edited) in &mut edits {
                *edited = reseal_as(schema, edited);
            }
        }
        if let Some(hex) = case.hex {
            let member = member(&case.doc, hex);
            let (key, digits) = member.split_at(hex.len() + 3);
            assert!(
                digits.contains(char::is_lowercase),
                "{}: a hex letter",
                case.name
            );
            let upper = case
                .doc
                .replacen(member, &(key.to_owned() + &digits.to_uppercase()), 1);
            // An upper-cased payload digit is resealed; the checksum's own
            // digits are the seal.
            let upper = match case.sealed {
                Some(schema) if hex != "checksum" => reseal_as(schema, &upper),
                _ => upper,
            };
            edits.push(("upper-case hex", upper));
        }
        for (edit, text) in edits {
            let what = format!("{} / {edit}", case.name);
            assert_ne!(
                text.trim_end(),
                case.doc.trim_end(),
                "{what}: the edit applies"
            );
            assert!(!(case.accepts)(&text), "{what}: accepted {text:?}");
            let report = audit_file(case.file, text.as_bytes());
            assert_eq!(
                codes(&report).first(),
                Some(&case.code),
                "{what}: {:?}",
                report.diagnostics
            );
        }
    }
}

/// Volume backstop: any single bit flip inside the document body (the
/// trailing newline excluded — trailing whitespace is legitimately
/// trimmed) must surface as at least one error-severity finding.
#[test]
#[ignore = "seeded volume sweep; run with --ignored"]
fn seeded_bit_flip_sweep() {
    let doc = base_doc().into_bytes();
    let body = doc.len() - 1;
    let dir = std::env::temp_dir().join(format!("bbmg-audit-sweep-{}", std::process::id()));
    fs::create_dir_all(&dir).expect("scratch dir");
    let path: PathBuf = dir.join("flipped.ckpt");
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0x5eed);
    for round in 0..512 {
        let byte = rng.gen_range(0..body);
        let bit = rng.gen_range(0..8u8);
        let mut mutated = doc.clone();
        mutated[byte] ^= 1 << bit;
        fs::write(&path, &mutated).expect("write artifact");
        let report = audit_paths(std::slice::from_ref(&path), &AuditOptions::default());
        assert!(
            report.errors() >= 1,
            "round {round}: flip of bit {bit} in byte {byte} went undetected: {:?}",
            report.diagnostics
        );
    }
}

/// Mutants per document kind in the decoder sweep.
const SWEEP_ROUNDS: usize = 1000;

/// Seeded mutants of `doc`: even rounds flip one bit anywhere, odd rounds
/// truncate inside the body (cutting only trailing whitespace would
/// leave the document intact).
fn mutants(doc: &[u8], seed: u64) -> Vec<Vec<u8>> {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let body = doc.trim_ascii_end().len();
    (0..SWEEP_ROUNDS)
        .map(|round| {
            let mut bytes = doc.to_vec();
            if round % 2 == 0 {
                let at = rng.gen_range(0..bytes.len());
                bytes[at] ^= 1 << rng.gen_range(0..8u8);
            } else {
                bytes.truncate(rng.gen_range(0..body));
            }
            bytes
        })
        .collect()
}

/// Feeds every mutant of `doc` to `decode`, lossily decoded to text the
/// way a reader that replaces bad UTF-8 would (see [`sweep_bytes`]).
fn sweep_decoder<T, E>(name: &str, doc: &str, seed: u64, decode: impl Fn(&str) -> Result<T, E>) {
    sweep_bytes(name, doc.as_bytes(), seed, |bytes| {
        decode(&String::from_utf8_lossy(bytes))
    });
}

/// Feeds every mutant of `doc` to `decode` and requires a typed outcome,
/// never a panic, with at least half of the mutants rejected.
fn sweep_bytes<T, E>(name: &str, doc: &[u8], seed: u64, decode: impl Fn(&[u8]) -> Result<T, E>) {
    assert!(decode(doc).is_ok(), "{name}: the pristine document decodes");
    let mut rejected = 0;
    for (round, bytes) in mutants(doc, seed).into_iter().enumerate() {
        match catch_unwind(AssertUnwindSafe(|| decode(&bytes).is_err())) {
            Ok(err) => rejected += usize::from(err),
            Err(_) => panic!("{name}: round {round} panicked on {bytes:?}"),
        }
    }
    assert!(
        rejected >= SWEEP_ROUNDS / 2,
        "{name}: only {rejected} of {SWEEP_ROUNDS} mutants rejected"
    );
}

#[test]
fn serve_feed_line_mutants_never_panic() {
    let hello = Line::Hello {
        source: "bus Ō/😀".into(),
        tasks: vec!["sensor \"a\"".into(), "中".into(), "b\\c\n".into()],
    };
    sweep_decoder("hello line", &hello.to_json(), 0x11, parse_line);
    let event = Line::Event {
        source: "bus0".into(),
        period: 12,
        time: 120_045,
        kind: WireKind::Rise,
        subject: "m7".into(),
    };
    sweep_decoder("event line", &event.to_json(), 0x12, parse_line);
}

#[test]
fn roster_mutants_never_panic() {
    let mut roster = Roster::new();
    for (source, restarts, state) in [("bus0", 1, "exact"), ("bus Ō", 0, "degraded")] {
        roster.record(RosterEntry {
            source: source.into(),
            checkpoint: format!("{source}.ckpt"),
            restarts,
            periods: 40,
            state: state.into(),
        });
    }
    sweep_decoder("roster", &roster.to_json(), 0x13, Roster::parse_json);
}

#[test]
fn health_mutants_never_panic() {
    let shard = |source: &str, state: &str, open| ShardHealth {
        source: source.into(),
        state: state.into(),
        open,
        periods: 27,
        events: 1_204,
        pending_events: 3,
        restarts: 1,
        memory_words: 4_096,
        watermark_words: 1 << 20,
        checkpoint_age_periods: 2,
        ..ShardHealth::default()
    };
    let snapshot = HealthSnapshot {
        seq: 3,
        uptime_us: 1_973,
        lines: 1_210,
        shards: vec![
            shard("bus0", "exact", false),
            shard("bus1", "shedding", true),
        ],
    };
    sweep_decoder(
        "health",
        &snapshot.to_json(),
        0x14,
        HealthSnapshot::parse_json,
    );
}

#[test]
fn metrics_mutants_never_panic() {
    let mut metrics = Metrics::new();
    learn_with(
        &simple::figure_2_trace(),
        LearnOptions::exact(),
        &mut metrics,
    )
    .expect("clean trace");
    let doc = metrics.snapshot().to_json();
    sweep_decoder("metrics", &doc, 0x15, MetricsSnapshot::parse_json);
}

#[test]
fn corpus_report_mutants_never_audit_clean() {
    let entries = format!(
        "{},{}",
        corpus_entry("miss", 0x6858_1e27_390c_d966),
        corpus_entry("full", 0xDEAD_BEEF)
    );
    let doc = corpus_doc((2, 1, 0, 1), 0.5, &entries);
    let dir = std::env::temp_dir().join(format!("bbmg-audit-corpus-sweep-{}", std::process::id()));
    fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join("report.json");
    let audit = |bytes: &[u8]| {
        fs::write(&path, bytes).expect("write artifact");
        audit_paths(std::slice::from_ref(&path), &AuditOptions::default())
    };
    let pristine = audit(doc.as_bytes());
    assert!(pristine.is_clean(true), "{:?}", pristine.diagnostics);
    for (round, bytes) in mutants(doc.as_bytes(), 0x16).into_iter().enumerate() {
        let report = audit(&bytes);
        assert!(
            !report.is_clean(true),
            "round {round}: mutant audits clean: {:?}",
            String::from_utf8_lossy(&bytes)
        );
    }
}

/// The committed benchmark artifacts, each with the name it is audited
/// under.
const BENCH_ARTIFACTS: [(&str, &str); 4] = [
    (
        "BENCH_learner.json",
        include_str!("../../../BENCH_learner.json"),
    ),
    (
        "BENCH_serve.json",
        include_str!("../../../BENCH_serve.json"),
    ),
    (
        "BENCH_corpus.json",
        include_str!("../../../BENCH_corpus.json"),
    ),
    (
        "BENCH_observer.json",
        include_str!("../../../BENCH_observer.json"),
    ),
];

#[test]
fn bench_rule_violations_are_malformed() {
    let learner = BENCH_ARTIFACTS[0].1;
    let renamed = learner.replacen("\"kernels\":", "\"kernel_rows\":", 1);
    let negative = learner.replacen("\"speedup_vs_1\":1}", "\"speedup_vs_1\":-1}", 1);
    let both = renamed.replacen("\"speedup_vs_1\":1}", "\"speedup_vs_1\":-1}", 1);
    for (name, doc) in [
        ("renamed", &renamed),
        ("negative", &negative),
        ("both", &both),
    ] {
        assert_ne!(doc, learner, "{name}: the mutation applies");
        let report = audit_file(&format!("bench-{name}/BENCH_learner.json"), doc.as_bytes());
        assert_eq!(
            codes(&report),
            ["BBMG011"],
            "{name}: {:?}",
            report.diagnostics
        );
        assert_eq!(report.errors(), 1, "{name}: a rule violation is an error");
    }
}

#[test]
fn bench_artifact_mutants_never_panic() {
    let dir = std::env::temp_dir().join(format!("bbmg-audit-bench-sweep-{}", std::process::id()));
    fs::create_dir_all(&dir).expect("scratch dir");
    for (seed, (name, doc)) in (0x17..).zip(BENCH_ARTIFACTS) {
        let path = dir.join(name);
        for (round, bytes) in mutants(doc.as_bytes(), seed).into_iter().enumerate() {
            fs::write(&path, &bytes).expect("write artifact");
            let report = catch_unwind(AssertUnwindSafe(|| {
                audit_paths(std::slice::from_ref(&path), &AuditOptions::default())
            }))
            .unwrap_or_else(|_| panic!("{name}: round {round} panicked"));
            if round % 2 == 1 {
                assert!(
                    report.errors() >= 1,
                    "{name}: truncation in round {round} audits without an error: {:?}",
                    String::from_utf8_lossy(&bytes)
                );
            }
        }
    }
}

#[test]
fn strict_trace_decoder_mutants_never_panic() {
    let trace = simple::figure_2_trace();
    sweep_decoder("csv", &write_csv(&trace), 0x1B, parse_csv);
    sweep_decoder("text trace", &write_trace(&trace), 0x1C, parse_trace);
    // Resealed, so each mutant gets past the checksum to the body decoder.
    sweep_bytes("btrace body", &base_btrace()[22..], 0x1D, |body| {
        parse_btrace(&reseal_btrace(body))
    });
}

/// The lenient CSV path accepts almost anything, so it only has to end in
/// a model: raw parse, repair under the skip and the repair options, then
/// the skip-policy learner at bound 4.
#[test]
fn lenient_trace_path_mutants_never_panic() {
    let csv = write_csv(&simple::figure_2_trace());
    let policies = [
        (
            "skip",
            RepairOptions {
                max_actions_per_period: Some(0),
            },
        ),
        ("repair", RepairOptions::default()),
    ];
    let options = LearnOptions::bounded(4).with_on_inconsistent(OnInconsistent::SkipPeriod);
    for (round, bytes) in mutants(csv.as_bytes(), 0x1E).into_iter().enumerate() {
        let text = String::from_utf8_lossy(&bytes);
        for (policy, repair) in &policies {
            let learned = catch_unwind(AssertUnwindSafe(|| {
                let Ok(parsed) = parse_csv_raw(&text) else {
                    return true;
                };
                let trace = repair_with(&parsed.raw, repair).trace;
                learn_with(&trace, options, &mut NoopObserver).is_ok()
            }));
            match learned {
                Ok(ok) => assert!(ok, "{policy}: round {round} failed to learn {text:?}"),
                Err(_) => panic!("{policy}: round {round} panicked on {text:?}"),
            }
        }
    }
}
