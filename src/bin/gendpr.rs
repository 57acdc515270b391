//! `gendpr` — command-line front end for the GenDPR middleware.
//!
//! ```text
//! gendpr synth  --snps 1000 --cases 600 --reference 500 --seed 7 --out data/
//! gendpr assess --case data/case.vcf --reference data/reference.vcf \
//!               --gdos 3 [--collusion <f|all>] [--maf 0.05] [--ld 1e-5] \
//!               [--fpr 0.1] [--power 0.9] [--out release.tsv] [--distributed]
//! gendpr node   --id 0 --peers 127.0.0.1:9470,127.0.0.1:9471,127.0.0.1:9472 \
//!               --case data/case.vcf --reference data/reference.vcf
//! gendpr attack --release release.tsv --victims data/case.vcf \
//!               --reference data/reference.vcf [--fpr 0.1]
//! ```
//!
//! `synth` writes a signed synthetic study; `assess` runs the full
//! threaded GenDPR deployment (enclaves, attestation, encrypted channels)
//! over the case file split among the GDOs and emits the safe release —
//! with `--distributed` it spawns one `gendpr node` process per GDO and
//! runs the same protocol over real TCP sockets; `node` runs a single
//! federation member daemon; `attack` plays the LR membership adversary
//! against a published release to check what a victim would face.

use gendpr::core::attack::{AttackStatistic, MembershipAttacker};
use gendpr::core::config::{CollusionMode, FederationConfig, GwasParams};
use gendpr::core::error::ProtocolError;
use gendpr::core::release::GwasRelease;
use gendpr::core::runtime::{run_federation_with, run_member, RuntimeOptions};
use gendpr::core::serving::ServiceFederation;
use gendpr::fednet::tcp::{ephemeral_listeners, TcpOptions, TcpTransport};
use gendpr::fednet::transport::PeerId;
use gendpr::genomics::cohort::Cohort;
use gendpr::genomics::synth::SyntheticCohort;
use gendpr::genomics::vcf;
use gendpr::service::daemon::{AssessmentService, Supervision};
use gendpr::service::ledger::{JobKind, LedgerRecord, ReleaseLedger};
use gendpr::service::{
    signals, SchedulerConfig, ServiceClient, ServiceError, ShardPlan, ShardSpec, TrackConfig,
    TrackCoordinator,
};
use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

/// Default HMAC key for signed VCF files; override with `--key`.
const DEFAULT_KEY: &[u8] = b"gendpr-demo-signing-key";

/// Flags that take a value, per subcommand. `parse_flags` rejects
/// anything not listed here. The federation subcommands share groups.
const SYNTH_FLAGS: &[&str] = &["snps", "cases", "reference", "seed", "out", "key"];
const STUDY: &[&str] = &["case", "reference", "key"];
const FEDERATION: &[&str] = &[
    "gdos",
    "collusion",
    "seed",
    "maf",
    "ld",
    "fpr",
    "power",
    "timeout",
];
const SERVICE: &[&str] = &[
    "ledger",
    "ledger-replicas",
    "shards",
    "workers",
    "max-queue",
    "max-retries",
    "drain-timeout",
    "track-lease-ms",
];
const ASSESS_FLAGS: &[&[&str]] = &[STUDY, FEDERATION, &["out", "log-level"]];
const ASSESS_BOOLS: &[&str] = &["distributed"];
const NODE_FLAGS: &[&[&str]] = &[
    &["id", "peers", "listen"],
    STUDY,
    FEDERATION,
    &["out", "log-level"],
];
const ATTACK_FLAGS: &[&str] = &["release", "victims", "reference", "fpr", "key"];
const SERVE_FLAGS: &[&[&str]] = &[
    STUDY,
    FEDERATION,
    SERVICE,
    &["listen", "metrics-addr", "track-id", "log-level"],
];
const SERVE_BOOLS: &[&str] = &["tcp"];
const TRACKS_FLAGS: &[&[&str]] = &[&["tracks"], STUDY, FEDERATION, SERVICE, &["log-level"]];
const TRACKS_BOOLS: &[&str] = &["tcp"];
const SUBMIT_FLAGS: &[&str] = &["addr", "snps"];
const SUBMIT_BOOLS: &[&str] = &["no-wait"];
const STATUS_FLAGS: &[&str] = &["addr"];
const STATUS_BOOLS: &[&str] = &["metrics"];
const RESULTS_FLAGS: &[&str] = &["addr", "job"];
const STOP_FLAGS: &[&str] = &["addr"];

/// Default client-protocol address of `gendpr serve`.
const DEFAULT_SERVICE_ADDR: &str = "127.0.0.1:7450";

/// Exit code for a protocol failure, so scripts (and the `assess
/// --distributed` parent) can distinguish the interesting outcomes:
/// 4 = member unresponsive / timeout, 5 = attestation or channel security
/// failure. Everything else (bad flags, I/O, malformed input) is the
/// generic 1.
const EXIT_UNRESPONSIVE: u8 = 4;
const EXIT_SECURITY: u8 = 5;
/// Graceful exit after SIGTERM/SIGINT: the in-flight work was finished or
/// aborted cleanly and (for `serve`) the ledger flushed.
const EXIT_INTERRUPTED: u8 = 7;

fn exit_code_for(err: &ProtocolError) -> u8 {
    match err {
        ProtocolError::MemberUnresponsive { .. } => EXIT_UNRESPONSIVE,
        ProtocolError::SecurityFailure { .. } => EXIT_SECURITY,
        ProtocolError::Interrupted => EXIT_INTERRUPTED,
        _ => 1,
    }
}

/// A CLI failure: a message plus the process exit code it maps to.
struct CliError {
    message: String,
    code: u8,
}

impl From<String> for CliError {
    fn from(message: String) -> Self {
        Self { message, code: 1 }
    }
}

fn protocol_error(err: ProtocolError) -> CliError {
    CliError {
        message: err.to_string(),
        code: exit_code_for(&err),
    }
}

fn service_error(err: ServiceError) -> CliError {
    CliError {
        code: err.as_protocol().map_or(1, exit_code_for),
        message: err.to_string(),
    }
}

/// Applies `--log-level` (overriding `GENDPR_LOG`) for the long-running
/// subcommands. Without the flag the environment variable stays in charge.
fn apply_log_level(flags: &HashMap<String, String>) -> Result<(), CliError> {
    if let Some(spec) = flags.get("log-level") {
        gendpr::obs::set_level(spec).map_err(|e| CliError::from(format!("--log-level: {e}")))?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print_usage();
        return ExitCode::SUCCESS;
    }
    let result = match args.first().map(String::as_str) {
        Some("synth") => parse_flags(&args[1..], SYNTH_FLAGS, &[])
            .map_err(CliError::from)
            .and_then(|f| cmd_synth(&f)),
        Some("assess") => parse_flags(&args[1..], &ASSESS_FLAGS.concat(), ASSESS_BOOLS)
            .map_err(CliError::from)
            .and_then(|f| cmd_assess(&f)),
        Some("node") => parse_flags(&args[1..], &NODE_FLAGS.concat(), &[])
            .map_err(CliError::from)
            .and_then(|f| cmd_node(&f)),
        Some("attack") => parse_flags(&args[1..], ATTACK_FLAGS, &[])
            .map_err(CliError::from)
            .and_then(|f| cmd_attack(&f)),
        Some("serve") => parse_flags(&args[1..], &SERVE_FLAGS.concat(), SERVE_BOOLS)
            .map_err(CliError::from)
            .and_then(|f| cmd_serve(&f)),
        Some("tracks") => parse_flags(&args[1..], &TRACKS_FLAGS.concat(), TRACKS_BOOLS)
            .map_err(CliError::from)
            .and_then(|f| cmd_tracks(&f)),
        Some("submit") => parse_flags(&args[1..], SUBMIT_FLAGS, SUBMIT_BOOLS)
            .map_err(CliError::from)
            .and_then(|f| cmd_submit(&f)),
        Some("status") => parse_flags(&args[1..], STATUS_FLAGS, STATUS_BOOLS)
            .map_err(CliError::from)
            .and_then(|f| cmd_status(&f)),
        Some("results") => parse_flags(&args[1..], RESULTS_FLAGS, &[])
            .map_err(CliError::from)
            .and_then(|f| cmd_results(&f)),
        Some("stop") => parse_flags(&args[1..], STOP_FLAGS, &[])
            .map_err(CliError::from)
            .and_then(|f| cmd_stop(&f)),
        None => {
            print_usage();
            Ok(())
        }
        Some(other) => Err(CliError::from(format!(
            "unknown subcommand {other:?}; try --help"
        ))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError { message, code }) => {
            eprintln!("error: {message}");
            ExitCode::from(code)
        }
    }
}

fn print_usage() {
    println!(
        "gendpr — secure and distributed assessment of privacy-preserving GWAS releases\n\n\
USAGE:\n  gendpr synth  --snps N --cases N --reference N [--seed N] [--out DIR] [--key HEX]\n  \
gendpr assess --case FILE --reference FILE --gdos N [--collusion f|all]\n                \
[--maf F] [--ld F] [--fpr F] [--power F] [--out FILE] [--key HEX]\n                \
[--distributed] [--timeout SECS]\n  \
gendpr node   --id K --peers HOST:PORT,... --case FILE --reference FILE\n                \
[--gdos N] [--listen ADDR] [--collusion f|all] [--seed N]\n                \
[--maf F] [--ld F] [--fpr F] [--power F] [--out FILE] [--key HEX]\n                \
[--timeout SECS]\n  \
gendpr attack --release FILE --victims FILE --reference FILE [--fpr F] [--key HEX]\n  \
gendpr serve  --case FILE --reference FILE --ledger FILE [--gdos N] [--tcp]\n                \
[--ledger-replicas PATH,...] [--shards S]\n                \
[--listen ADDR] [--collusion f|all] [--seed N] [--maf F] [--ld F]\n                \
[--fpr F] [--power F] [--key HEX] [--timeout SECS]\n                \
[--workers N] [--max-queue N] [--max-retries N]\n                \
[--drain-timeout SECS]\n                \
[--track-id N] [--track-lease-ms MS]\n                \
[--metrics-addr HOST:PORT] [--log-level LEVEL]\n  \
gendpr tracks --tracks N --case FILE --reference FILE --ledger FILE\n                \
[any serve flag except --listen/--track-id/--metrics-addr]\n  \
gendpr submit [--addr HOST:PORT[,HOST:PORT...]] [--snps all|A-B|A,B,...]\n                \
[--no-wait]\n  \
gendpr status [--addr HOST:PORT[,...]] [--metrics]\n  \
gendpr results --job ID [--addr HOST:PORT[,...]]\n  \
gendpr stop   [--addr HOST:PORT[,...]]\n\n\
`assess --distributed` spawns one `gendpr node` process per GDO on free\n\
localhost ports and runs the protocol over real TCP sockets; `node` runs a\n\
single member against an explicit peer roster (same seed + study files on\n\
every host ⇒ same federation, bit-identical release).\n\n\
SERVICE:\n  `serve` keeps the federation attested across a stream of jobs (default\n  \
client address 127.0.0.1:7450; --tcp runs the members over loopback\n  \
sockets instead of the in-memory fabric — certificates are byte-identical\n  \
either way). Every certified release is appended to the checksummed\n  \
--ledger file and seeds the LR phase of all later jobs, so the certified\n  \
adversary power always covers the cumulative release — across jobs and\n  \
across daemon restarts. `submit` queues a job (blocking until certified\n  \
unless --no-wait); every job runs federated on an attested lane.\n  \
`--workers N` runs N federation lanes concurrently; releases stay\n  \
deterministic because every job's seed is a ledger snapshot taken at\n  \
dispatch and commits land in job-id order. `--max-queue N` bounds the\n  \
job queue; over-limit submits get a typed queue-full rejection. `status`\n  \
shows queue depth, worker utilisation and cumulative per-link traffic;\n  \
`results` fetches a job's ledger record; `stop` drains and exits.\n  \
Lanes are supervised: a lane whose member fails or panics is torn down,\n  \
its job retried on a fresh re-elected lane (--max-retries, default 2,\n  \
then a typed `retried` rejection), and shutdown converts stragglers\n  \
past --drain-timeout SECS (default 30) to shutting-down verdicts.\n  \
--shards S partitions the SNP panel into S word-aligned ranges, each\n  \
assessed by its own attested sub-federation in parallel (phases 1–2);\n  \
the per-shard results merge byte-identically into the primary lane's\n  \
global LR search, so releases and certificates equal --shards 1. A\n  \
crashed shard lane is rebuilt and re-runs only its shard.\n  \
--ledger-replicas PATH,... mirrors the ledger: appends need a majority\n  \
fsync quorum, and on open the longest intact prefix heals the rest.\n  \
--track-id N joins the daemon to a replica-track fleet: every track\n  \
serves the same shared ledger and claims jobs through a quorum-mirrored\n  \
claim log (append-wins, at-most-once execution), committing strictly in\n  \
claim order so a 1-track fleet is byte-identical to a plain daemon. A\n  \
crashed track's claims expire after --track-lease-ms MS (default 10000)\n  \
and survivors re-run them at the same ledger position. `gendpr tracks`\n  \
launches a local fleet of N such daemons on probed ports; clients fail\n  \
over across tracks with a comma-separated --addr list.\n\n\
OBSERVABILITY:\n  \
--metrics-addr H:P  serve the daemon's metrics in the Prometheus text\n                      \
format at http://H:P/metrics (per-phase timings,\n                      \
transport counters, job-queue gauges)\n  \
--log-level LEVEL   JSON-lines event logging to stderr: off, error,\n                      \
warn, info, debug or trace (overrides GENDPR_LOG;\n                      \
also on assess/node/serve)\n  \
status --metrics    dump the same exposition document over the client\n                      \
protocol, no HTTP endpoint needed\n\n\
FAULT TOLERANCE:\n  assess and node abort on the first member silent for --timeout SECS\n  \
(the paper's rule); serve rebuilds a failed lane and re-runs its job\n\nEXIT CODES:\n  \
0 success · 1 generic error · 4 member unresponsive\n  \
5 attestation/channel security failure\n  \
7 interrupted by SIGTERM/SIGINT (in-flight work finished, ledger flushed)"
    );
}

/// Levenshtein distance, for "did you mean" suggestions on unknown flags.
fn edit_distance(a: &str, b: &str) -> usize {
    let (a, b): (Vec<char>, Vec<char>) = (a.chars().collect(), b.chars().collect());
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, ca) in a.iter().enumerate() {
        let mut row = vec![i + 1];
        for (j, cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            row.push(sub.min(prev[j + 1] + 1).min(row[j] + 1));
        }
        prev = row;
    }
    prev[b.len()]
}

/// Strict flag parser: every flag must be declared (either taking a value
/// or boolean), duplicates and stray positional arguments are errors, and
/// unknown flags get a nearest-match suggestion.
fn parse_flags(
    args: &[String],
    value_flags: &[&str],
    bool_flags: &[&str],
) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        let Some(raw) = arg.strip_prefix("--") else {
            return Err(format!(
                "unexpected argument {arg:?}; flags look like --name VALUE"
            ));
        };
        let (name, inline) = match raw.split_once('=') {
            Some((n, v)) => (n, Some(v.to_string())),
            None => (raw, None),
        };
        if flags.contains_key(name) {
            return Err(format!("flag --{name} given more than once"));
        }
        if bool_flags.contains(&name) {
            if let Some(v) = inline {
                return Err(format!("--{name} takes no value (got {v:?})"));
            }
            flags.insert(name.to_string(), "true".to_string());
            i += 1;
        } else if value_flags.contains(&name) {
            let value = match inline {
                Some(v) => v,
                None => {
                    i += 1;
                    args.get(i)
                        .cloned()
                        .ok_or_else(|| format!("--{name} expects a value"))?
                }
            };
            flags.insert(name.to_string(), value);
            i += 1;
        } else {
            let suggestion = value_flags
                .iter()
                .chain(bool_flags)
                .min_by_key(|known| edit_distance(name, known))
                .filter(|known| edit_distance(name, known) <= 2)
                .map(|known| format!(" (did you mean --{known}?)"))
                .unwrap_or_default();
            return Err(format!("unknown flag --{name}{suggestion}"));
        }
    }
    Ok(flags)
}

fn flag<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    name: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{name}: cannot parse {v:?}")),
    }
}

fn required<'a>(flags: &'a HashMap<String, String>, name: &str) -> Result<&'a str, String> {
    flags
        .get(name)
        .map(String::as_str)
        .filter(|s| !s.is_empty())
        .ok_or_else(|| format!("missing required flag --{name}"))
}

/// Probes `n` free localhost ports by binding ephemeral listeners, then
/// releases them for child processes to claim.
fn free_ports(n: usize) -> Result<Vec<SocketAddr>, String> {
    let probes = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0"))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("probing a free localhost port: {e}"))?;
    probes
        .iter()
        .map(|probe| probe.local_addr().map_err(|e| e.to_string()))
        .collect()
}

/// Forwards to a child process every flag given to its launcher that the
/// child's own `table` and `bools` accept, in the table's order, minus
/// the `own` flags the launcher sets itself.
fn forward(
    child: &mut Command,
    flags: &HashMap<String, String>,
    table: &[&[&str]],
    bools: &[&str],
    own: &[&str],
) {
    for name in table.concat() {
        if let Some(value) = flags.get(name).filter(|_| !own.contains(&name)) {
            child.arg(format!("--{name}")).arg(value);
        }
    }
    for name in bools.iter().filter(|name| flags.contains_key(**name)) {
        child.arg(format!("--{name}"));
    }
}

fn signing_key(flags: &HashMap<String, String>) -> Vec<u8> {
    flags
        .get("key")
        .map(|k| k.as_bytes().to_vec())
        .unwrap_or_else(|| DEFAULT_KEY.to_vec())
}

fn cmd_synth(flags: &HashMap<String, String>) -> Result<(), CliError> {
    let snps: usize = flag(flags, "snps", 1_000)?;
    let cases: usize = flag(flags, "cases", 600)?;
    let reference: usize = flag(flags, "reference", 500)?;
    let seed: u64 = flag(flags, "seed", 0)?;
    let out: PathBuf = flag(flags, "out", PathBuf::from("."))?;
    let key = signing_key(flags);

    let cohort = SyntheticCohort::builder()
        .snps(snps)
        .case_individuals(cases)
        .reference_individuals(reference)
        .seed(seed)
        .build();

    std::fs::create_dir_all(&out).map_err(|e| format!("creating {}: {e}", out.display()))?;
    let case_path = out.join("case.vcf");
    let ref_path = out.join("reference.vcf");
    let write = |path: &Path, text: String| {
        std::fs::write(path, text).map_err(|e| format!("writing {}: {e}", path.display()))
    };
    write(
        &case_path,
        vcf::write_signed(cohort.panel(), cohort.case(), &key),
    )?;
    write(
        &ref_path,
        vcf::write_signed(cohort.panel(), cohort.reference(), &key),
    )?;
    println!(
        "wrote {} ({} genomes) and {} ({} genomes) over {snps} SNPs (seed {seed})",
        case_path.display(),
        cases,
        ref_path.display(),
        reference
    );
    Ok(())
}

fn load_cohort(flags: &HashMap<String, String>) -> Result<Cohort, String> {
    let key = signing_key(flags);
    let read = |name: &str| -> Result<vcf::VariantFile, String> {
        let path = required(flags, name)?;
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        vcf::read_signed(&text, &key).map_err(|e| format!("{path}: {e}"))
    };
    let case = read("case")?;
    let reference = read("reference")?;
    Cohort::new(case.panel, case.genotypes, reference.genotypes).map_err(|e| e.to_string())
}

fn params_from_flags(flags: &HashMap<String, String>) -> Result<GwasParams, String> {
    let mut params = GwasParams::secure_genome_defaults();
    params.maf_cutoff = flag(flags, "maf", params.maf_cutoff)?;
    params.ld_cutoff = flag(flags, "ld", params.ld_cutoff)?;
    params.lr.false_positive_rate = flag(flags, "fpr", params.lr.false_positive_rate)?;
    params.lr.power_threshold = flag(flags, "power", params.lr.power_threshold)?;
    params.validate().map_err(|e| e.to_string())?;
    Ok(params)
}

fn config_from_flags(
    flags: &HashMap<String, String>,
    gdos: usize,
) -> Result<FederationConfig, String> {
    let collusion = match flags.get("collusion").map(String::as_str) {
        None => CollusionMode::None,
        Some("all") => CollusionMode::AllUpTo,
        Some(f) => CollusionMode::Fixed(
            f.parse()
                .map_err(|_| format!("--collusion: expected a number or 'all', got {f:?}"))?,
        ),
    };
    let config = FederationConfig::new(gdos)
        .with_collusion(collusion)
        .with_seed(flag(flags, "seed", 0u64)?);
    config.validate().map_err(|e| e.to_string())?;
    Ok(config)
}

/// The deployment options every attested command (`assess`, `node`,
/// `serve`) runs with: compact Phase 3 reports and the batched LD round.
fn runtime_options(timeout: Duration) -> RuntimeOptions {
    RuntimeOptions {
        timeout,
        compact_lr: true,
        prefetch_ld: true,
        ..RuntimeOptions::default()
    }
}

fn release_for(cohort: &Cohort, safe_snps: &[gendpr::genomics::snp::SnpId]) -> GwasRelease {
    GwasRelease::noise_free(
        safe_snps,
        &cohort.case().column_counts(),
        cohort.case_individuals() as u64,
        &cohort.reference().column_counts(),
        cohort.reference_individuals() as u64,
    )
}

fn cmd_assess(flags: &HashMap<String, String>) -> Result<(), CliError> {
    apply_log_level(flags)?;
    if flags.contains_key("distributed") {
        return cmd_assess_distributed(flags);
    }
    let cohort = load_cohort(flags)?;
    let gdos: usize = flag(flags, "gdos", 3)?;
    let params = params_from_flags(flags)?;
    let config = config_from_flags(flags, gdos)?;
    let timeout: u64 = flag(flags, "timeout", 3_600)?;

    println!(
        "assessing {} case genomes / {} reference genomes over {} SNPs with {gdos} GDOs…",
        cohort.case_individuals(),
        cohort.reference_individuals(),
        cohort.panel().len()
    );
    let report = run_federation_with(
        config,
        params,
        &cohort,
        None,
        runtime_options(Duration::from_secs(timeout)),
    )
    .map_err(protocol_error)?;

    println!("leader: GDO {}", report.leader);
    println!(
        "assessment certificate: {} (enclave-signed; binds parameters, inputs and L_safe)",
        report.certificate.fingerprint()
    );
    println!(
        "L_des = {} → L' = {} → L'' = {} → L_safe = {}",
        cohort.panel().len(),
        report.l_prime.len(),
        report.l_double_prime.len(),
        report.safe_snps.len()
    );
    println!(
        "traffic: {} messages, {} bytes on the wire | total time {:.1} ms",
        report.traffic.messages,
        report.traffic.wire_bytes,
        report.elapsed.as_secs_f64() * 1e3
    );

    let release = release_for(&cohort, &report.safe_snps);
    if let Some(out) = flags.get("out") {
        std::fs::write(out, release.to_tsv()).map_err(|e| format!("writing {out}: {e}"))?;
        println!("release written to {out} ({} SNPs)", release.len());
    } else {
        println!("\ntop hits (pass --out FILE to save the full release):");
        for stat in release.top_ranked(5) {
            println!(
                "  {}: p = {:.2e}, OR = {:.2} [{:.2}, {:.2}]",
                stat.snp,
                stat.chi2_p_value,
                stat.odds_ratio,
                stat.odds_ratio_ci95.0,
                stat.odds_ratio_ci95.1
            );
        }
    }
    Ok(())
}

/// `assess --distributed`: probe free localhost ports, spawn one
/// `gendpr node` process per GDO against that roster, and relay their
/// output. Node 0 writes the release (`--out`); every node verifies it
/// reached the same safe set or the protocol aborts.
fn cmd_assess_distributed(flags: &HashMap<String, String>) -> Result<(), CliError> {
    let gdos: usize = flag(flags, "gdos", 3)?;
    let case = required(flags, "case")?.to_string();
    let reference = required(flags, "reference")?.to_string();
    config_from_flags(flags, gdos)?; // fail fast on bad federation flags

    let peers = free_ports(gdos)?
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join(",");
    let exe = std::env::current_exe().map_err(|e| format!("locating gendpr binary: {e}"))?;
    println!("spawning {gdos} gendpr node processes: {peers}");

    let mut children = Vec::with_capacity(gdos);
    for id in 0..gdos {
        let mut cmd = Command::new(&exe);
        cmd.arg("node")
            .args(["--id", &id.to_string()])
            .args(["--gdos", &gdos.to_string()])
            .args(["--peers", &peers])
            .args(["--case", &case])
            .args(["--reference", &reference]);
        let own = ["id", "gdos", "peers", "case", "reference", "out"];
        forward(&mut cmd, flags, NODE_FLAGS, &[], &own);
        if id == 0 {
            if let Some(out) = flags.get("out") {
                cmd.args(["--out", out]);
            }
        }
        cmd.stdout(Stdio::piped()).stderr(Stdio::piped());
        let child = cmd
            .spawn()
            .map_err(|e| format!("spawning node {id}: {e}"))?;
        children.push((id, child));
    }

    // Propagate the most telling child exit code: a typed protocol code
    // (4, 5) beats the generic 1, and a security failure beats a timeout.
    let mut failed_code: Option<u8> = None;
    for (id, child) in children {
        let output = child
            .wait_with_output()
            .map_err(|e| format!("waiting for node {id}: {e}"))?;
        for line in String::from_utf8_lossy(&output.stdout).lines() {
            println!("[gdo {id}] {line}");
        }
        for line in String::from_utf8_lossy(&output.stderr).lines() {
            eprintln!("[gdo {id}] {line}");
        }
        if !output.status.success() {
            let code = output
                .status
                .code()
                .and_then(|c| u8::try_from(c).ok())
                .unwrap_or(1);
            if failed_code.is_none_or(|prev| exit_rank(code) < exit_rank(prev)) {
                failed_code = Some(code);
            }
        }
    }
    if let Some(code) = failed_code {
        return Err(CliError {
            message: "one or more node processes failed".to_string(),
            code,
        });
    }
    if let Some(out) = flags.get("out") {
        println!("distributed assessment complete; release written to {out} by node 0");
    } else {
        println!("distributed assessment complete (pass --out FILE to save the release)");
    }
    Ok(())
}

/// Orders child exit codes by how telling they are, so a multi-process
/// parent (`assess --distributed`, `tracks`) propagates the most
/// interesting one: a typed protocol code (4, 5) beats the generic 1,
/// and a security failure beats a plain timeout.
fn exit_rank(code: u8) -> u8 {
    match code {
        EXIT_SECURITY => 0,
        EXIT_UNRESPONSIVE => 1,
        _ => 2,
    }
}

fn resolve_addr(spec: &str) -> Result<SocketAddr, String> {
    spec.to_socket_addrs()
        .map_err(|e| format!("resolving {spec:?}: {e}"))?
        .next()
        .ok_or_else(|| format!("{spec:?} resolves to no address"))
}

/// `gendpr node`: run one federation member over real TCP sockets.
///
/// The member work runs on a worker thread while the main thread watches
/// for SIGTERM/SIGINT: a signal aborts the in-flight protocol run (the
/// peers see a silent member and time out or re-form, exactly as for a
/// crash) and exits with the dedicated code 7.
fn cmd_node(flags: &HashMap<String, String>) -> Result<(), CliError> {
    signals::install();
    apply_log_level(flags)?;
    let worker_flags = flags.clone();
    let worker = std::thread::Builder::new()
        .name("gendpr-member".into())
        .spawn(move || run_node(&worker_flags))
        .map_err(|e| format!("spawning the member thread: {e}"))?;
    loop {
        if worker.is_finished() {
            return worker.join().expect("member thread");
        }
        if signals::requested() {
            eprintln!("shutdown signal received; aborting the member");
            return Err(protocol_error(ProtocolError::Interrupted));
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// The member body of `gendpr node` (see [`cmd_node`]).
///
/// Every node loads the same signed study files and derives its shard
/// (slice `--id` of the case cohort split `--gdos` ways) and all secret
/// material from `--seed`, so a roster of independently started processes
/// reconstructs exactly the federation `gendpr assess` runs in-process.
fn run_node(flags: &HashMap<String, String>) -> Result<(), CliError> {
    let id: usize = required(flags, "id")?
        .parse()
        .map_err(|_| "--id: expected a member index".to_string())?;
    let roster_spec = required(flags, "peers")?;
    let mut roster: Vec<(PeerId, SocketAddr)> = Vec::new();
    for (i, spec) in roster_spec.split(',').enumerate() {
        roster.push((PeerId(i as u32), resolve_addr(spec.trim())?));
    }
    let gdos: usize = flag(flags, "gdos", roster.len())?;
    if gdos != roster.len() {
        return Err(CliError::from(format!(
            "--peers lists {} addresses but --gdos is {gdos}",
            roster.len()
        )));
    }
    if id >= gdos {
        return Err(CliError::from(format!(
            "--id {id} out of range for a federation of {gdos}"
        )));
    }

    let cohort = load_cohort(flags)?;
    let params = params_from_flags(flags)?;
    let config = config_from_flags(flags, gdos)?;
    let timeout: u64 = flag(flags, "timeout", 60)?;
    let timeout = Duration::from_secs(timeout);

    let listen = match flags.get("listen") {
        Some(spec) => resolve_addr(spec)?,
        None => roster[id].1,
    };
    let transport = TcpTransport::bind(
        PeerId(id as u32),
        listen,
        &roster,
        TcpOptions {
            connect_timeout: timeout,
            ..TcpOptions::default()
        },
    )
    .map_err(|e| format!("binding {listen}: {e}"))?;
    println!(
        "member {id}/{gdos} listening on {} (seed {})",
        transport.local_addr(),
        config.seed
    );

    let shard = cohort
        .split_case_among(gdos)
        .into_iter()
        .nth(id)
        .expect("id < gdos");
    let options = runtime_options(timeout);
    let outcome = run_member(
        transport,
        id,
        &config,
        &params,
        options,
        shard,
        cohort.reference(),
    )
    .map_err(protocol_error)?;

    println!("leader: GDO {}", outcome.leader);
    if let Some(cert) = &outcome.certificate {
        println!(
            "assessment certificate: {} (enclave-signed; binds parameters, inputs and L_safe)",
            cert.fingerprint()
        );
    }
    println!("L_safe = {} SNPs", outcome.safe_snps.len());
    for (peer, stats) in &outcome.links {
        println!(
            "link → gdo {peer}: {} messages, {} wire bytes ({} plaintext)",
            stats.messages, stats.wire_bytes, stats.plaintext_bytes
        );
    }
    println!(
        "egress {} bytes / ingress {} bytes on the wire",
        outcome.egress.wire_bytes, outcome.ingress.wire_bytes
    );

    if let Some(out) = flags.get("out") {
        let release = release_for(&cohort, &outcome.safe_snps);
        std::fs::write(out, release.to_tsv()).map_err(|e| format!("writing {out}: {e}"))?;
        println!("release written to {out} ({} SNPs)", release.len());
    }
    Ok(())
}

/// `gendpr serve`: keep the federation attested and serve a stream of
/// assessment jobs, certifying each against the ledger's cumulative
/// release.
fn cmd_serve(flags: &HashMap<String, String>) -> Result<(), CliError> {
    signals::install();
    apply_log_level(flags)?;
    let cohort = load_cohort(flags)?;
    let gdos: usize = flag(flags, "gdos", 3)?;
    let params = params_from_flags(flags)?;
    let config = config_from_flags(flags, gdos)?;
    let timeout: u64 = flag(flags, "timeout", 3_600)?;
    let ledger_path = required(flags, "ledger")?.to_string();
    let replica_paths: Vec<PathBuf> = flags
        .get("ledger-replicas")
        .map(|spec| spec.split(',').map(|p| PathBuf::from(p.trim())).collect())
        .unwrap_or_default();

    let track_id: Option<u32> = match flags.get("track-id") {
        None => None,
        Some(v) => Some(
            v.parse()
                .map_err(|_| format!("--track-id: expected a track index, got {v:?}"))?,
        ),
    };
    let track_lease_ms: u64 = flag(flags, "track-lease-ms", 10_000)?;
    if track_lease_ms == 0 {
        return Err(CliError::from(
            "--track-lease-ms must be at least 1".to_string(),
        ));
    }

    // A tracked daemon opens the ledger through the fleet coordinator so
    // the claim log and ledger heal under one file lock; a standalone
    // daemon opens it directly, exactly as before.
    let (tracker, ledger) = match track_id {
        Some(track) => {
            let (tracker, ledger) = TrackCoordinator::open(
                TrackConfig {
                    track,
                    lease: Duration::from_millis(track_lease_ms),
                },
                Path::new(&ledger_path),
                &replica_paths,
            )
            .map_err(service_error)?;
            println!(
                "track {track} joined the fleet over {} (lease {track_lease_ms} ms)",
                ledger_path
            );
            (Some(std::sync::Arc::new(tracker)), ledger)
        }
        None => (
            None,
            ReleaseLedger::open_replicated(&ledger_path, &replica_paths).map_err(service_error)?,
        ),
    };
    if !replica_paths.is_empty() {
        println!(
            "ledger mirrored across {} files (majority-fsync quorum)",
            1 + replica_paths.len()
        );
    }
    if ledger.recovered_bytes() > 0 {
        println!(
            "ledger: recovered from a torn write ({} trailing bytes dropped)",
            ledger.recovered_bytes()
        );
    }
    println!(
        "ledger {}: {} records, {} SNPs already released",
        ledger_path,
        ledger.len(),
        ledger.released_len()
    );

    let options = runtime_options(Duration::from_secs(timeout));
    let workers: usize = flag(flags, "workers", 1)?;
    if workers == 0 {
        return Err(CliError::from("--workers must be at least 1".to_string()));
    }
    let max_queue: usize = flag(flags, "max-queue", 64)?;
    let max_retries: u32 = flag(flags, "max-retries", 2)?;
    let drain_timeout = Duration::from_secs(flag(flags, "drain-timeout", 30u64)?);
    let tcp = flags.contains_key("tcp");

    // Every lane is a full federation session from the same config and
    // seed, so each certifies identically; the scheduler serialises their
    // ledger commits in job-id order. The builder is shared by the
    // primary-lane factory (kept by the worker pool to re-elect and
    // re-attest a replacement lane whenever a running one crashes) and
    // the shard-lane factory (same, per shard).
    let cohort = std::sync::Arc::new(cohort);
    type LaneBuilder =
        std::sync::Arc<dyn Fn(&Cohort) -> Result<ServiceFederation, ServiceError> + Send + Sync>;
    let build: LaneBuilder = std::sync::Arc::new(move |study: &Cohort| {
        let lane_err = |e: String| ServiceError::from(std::io::Error::other(e));
        if tcp {
            let (roster, listeners) = ephemeral_listeners(gdos)
                .map_err(|e| lane_err(format!("binding member loopback listeners: {e}")))?;
            let mut transports = Vec::with_capacity(gdos);
            for (id, listener) in listeners.into_iter().enumerate() {
                let transport = TcpTransport::from_listener(
                    PeerId(id as u32),
                    listener,
                    &roster,
                    TcpOptions::default(),
                )
                .map_err(|e| lane_err(format!("member {id} transport: {e}")))?;
                transports.push(transport);
            }
            ServiceFederation::start_over(transports, config, params, study, options)
                .map_err(ServiceError::from)
        } else {
            ServiceFederation::start_in_memory(config, params, study, options)
                .map_err(ServiceError::from)
        }
    });
    let factory: gendpr::service::sched::LaneFactory = {
        let build = std::sync::Arc::clone(&build);
        let cohort = std::sync::Arc::clone(&cohort);
        std::sync::Arc::new(move || build(&cohort))
    };
    let shards: u32 = flag(flags, "shards", 1)?;
    let plan = ShardPlan::new(cohort.panel().len(), shards);
    if shards > 1 && plan.len() == 1 {
        println!(
            "--shards {shards}: panel too narrow to give every shard a full \
             64-SNP word; running unsharded"
        );
    }
    let shard = (plan.len() > 1).then(|| {
        let build = std::sync::Arc::clone(&build);
        let shard_cohort = std::sync::Arc::clone(&cohort);
        ShardSpec {
            plan: plan.clone(),
            factory: std::sync::Arc::new(move |_shard, range| {
                let slice = shard_cohort.column_range(range.start as usize, range.len as usize);
                build(&slice)
            }),
            max_retries,
        }
    });
    let mut lanes = Vec::with_capacity(workers);
    for _ in 0..workers {
        lanes.push(factory().map_err(service_error)?);
    }
    if plan.len() > 1 {
        println!(
            "sharded assessment: {} shards per worker (phases 1–2 per shard, merged \
             byte-identically into the global LR search)",
            plan.len()
        );
    }
    println!(
        "federation up: {gdos} members over {} transport, leader GDO {}, {workers} worker lane{}",
        if tcp { "loopback TCP" } else { "in-memory" },
        lanes[0].leader(),
        if workers == 1 { "" } else { "s" }
    );

    let listen = match flags.get("listen") {
        Some(spec) => resolve_addr(spec)?,
        None => resolve_addr(DEFAULT_SERVICE_ADDR)?,
    };
    let listener = TcpListener::bind(listen).map_err(|e| format!("binding {listen}: {e}"))?;
    let sched_config = SchedulerConfig {
        workers,
        max_queue,
        max_retries,
        drain_timeout,
    };
    let service = AssessmentService::start_supervised(
        lanes,
        Supervision {
            factory,
            shard,
            tracker,
        },
        ledger,
        &cohort,
        listener,
        sched_config,
    )
    .map_err(service_error)?;
    // Held until `run()` returns: dropping the server stops the exporter.
    let metrics_server = match flags.get("metrics-addr") {
        Some(spec) => {
            let addr = resolve_addr(spec)?;
            let server = gendpr::obs::MetricsServer::start(addr)
                .map_err(|e| format!("binding metrics endpoint {addr}: {e}"))?;
            println!(
                "metrics exposition on http://{}/metrics",
                server.local_addr()
            );
            Some(server)
        }
        None => None,
    };
    println!(
        "serving on {} — submit jobs with `gendpr submit --addr {}`",
        service.client_addr(),
        service.client_addr()
    );
    service.run().map_err(service_error)?;
    drop(metrics_server);
    println!("service stopped cleanly");
    Ok(())
}

/// `gendpr tracks`: launch a local fleet of `--tracks N` replica-track
/// daemons over one shared ledger. Each track is a full `gendpr serve`
/// process with its own attested federation and its own client port;
/// the tracks coordinate exclusively through the ledger's claim log, so
/// clients may submit to any of them (or to all, with a comma-separated
/// `--addr` list that fails over past dead tracks).
fn cmd_tracks(flags: &HashMap<String, String>) -> Result<(), CliError> {
    signals::install();
    apply_log_level(flags)?;
    let tracks: u32 = flag(flags, "tracks", 2)?;
    if tracks == 0 {
        return Err(CliError::from("--tracks must be at least 1".to_string()));
    }
    let ledger = required(flags, "ledger")?.to_string();
    required(flags, "case")?;
    required(flags, "reference")?;

    let addrs = free_ports(tracks as usize)?;
    let exe = std::env::current_exe().map_err(|e| format!("locating gendpr binary: {e}"))?;
    println!("launching {tracks} replica tracks over ledger {ledger}");

    let mut children = Vec::with_capacity(tracks as usize);
    for (track, addr) in addrs.iter().enumerate() {
        let mut cmd = Command::new(&exe);
        cmd.arg("serve")
            .args(["--track-id", &track.to_string()])
            .args(["--listen", &addr.to_string()]);
        forward(
            &mut cmd,
            flags,
            SERVE_FLAGS,
            SERVE_BOOLS,
            &["track-id", "listen"],
        );
        cmd.stdout(Stdio::piped()).stderr(Stdio::piped());
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("spawning track {track}: {e}"))?;
        // Relay both output streams live, prefixed with the track id, so
        // the fleet reads like one interleaved log.
        if let Some(stdout) = child.stdout.take() {
            std::thread::spawn(move || {
                for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                    println!("[track {track}] {line}");
                }
            });
        }
        if let Some(stderr) = child.stderr.take() {
            std::thread::spawn(move || {
                for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                    eprintln!("[track {track}] {line}");
                }
            });
        }
        children.push((track, child));
    }
    let endpoints = addrs
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join(",");
    println!("fleet up — submit to any track: `gendpr submit --addr {endpoints}`");

    // Babysit the fleet: relay a shutdown signal to every track (a
    // terminal Ctrl-C already reaches the children through the process
    // group; an external SIGTERM to this launcher alone would not), then
    // wait for all of them and propagate the most telling exit code.
    // A track that exited via the interrupt path (code 7) is clean.
    let mut failed_code: Option<u8> = None;
    let mut stop_sent = false;
    while !children.is_empty() {
        if signals::requested() && !stop_sent {
            stop_sent = true;
            eprintln!("shutdown signal received; stopping every track");
            for (track, _) in &children {
                let _ = ServiceClient::new(addrs[*track]).shutdown();
            }
        }
        children.retain_mut(|(track, child)| match child.try_wait() {
            Ok(None) => true,
            Ok(Some(status)) => {
                let code = status
                    .code()
                    .and_then(|c| u8::try_from(c).ok())
                    .unwrap_or(1);
                if !status.success() && code != EXIT_INTERRUPTED {
                    eprintln!("track {track} exited with code {code}");
                    if failed_code.is_none_or(|prev| exit_rank(code) < exit_rank(prev)) {
                        failed_code = Some(code);
                    }
                }
                false
            }
            Err(_) => false,
        });
        std::thread::sleep(Duration::from_millis(100));
    }
    if let Some(code) = failed_code {
        return Err(CliError {
            message: "one or more tracks failed".to_string(),
            code,
        });
    }
    println!("all tracks stopped cleanly");
    Ok(())
}

fn service_client(flags: &HashMap<String, String>) -> Result<ServiceClient, CliError> {
    // Client commands are ordinary short-lived Unix tools: piping their
    // stdout into `head`/`grep -q` must end them quietly, not panic.
    signals::die_on_sigpipe();
    let spec = flags
        .get("addr")
        .map_or(DEFAULT_SERVICE_ADDR, String::as_str);
    // `--addr` takes a comma-separated endpoint list — the addresses of
    // a replica-track fleet — and each request lands on the first track
    // that answers.
    let mut endpoints = Vec::new();
    for part in spec.split(',') {
        endpoints.push(resolve_addr(part.trim())?);
    }
    Ok(ServiceClient::with_endpoints(endpoints))
}

/// Parses `--snps`: `all` (the daemon's full panel), an inclusive range
/// `A-B`, or a comma-separated id list.
fn parse_snp_spec(spec: &str, panel_len: u64) -> Result<Vec<u32>, String> {
    if spec == "all" {
        return Ok(
            (0..u32::try_from(panel_len).map_err(|_| "panel too wide".to_string())?).collect(),
        );
    }
    let parse = |s: &str| -> Result<u32, String> {
        s.trim()
            .parse()
            .map_err(|_| format!("--snps: {s:?} is not a SNP id"))
    };
    if let Some((a, b)) = spec.split_once('-') {
        let (a, b) = (parse(a)?, parse(b)?);
        if a > b {
            return Err(format!("--snps: empty range {a}-{b}"));
        }
        return Ok((a..=b).collect());
    }
    spec.split(',').map(parse).collect()
}

fn print_record(record: &LedgerRecord) {
    println!(
        "job {} ({:?}): released {} of {} requested SNPs (seeded with {} prior)",
        record.job_id,
        record.kind,
        record.released.len(),
        record.panel.len(),
        record.forced.len()
    );
    // A federated job records the LR detection threshold τ there, a
    // dynamic job (in a ledger an older daemon wrote) the bound its power
    // was held below.
    let threshold = match record.kind {
        JobKind::Federated => "LR detection threshold",
        JobKind::Dynamic => "power bound",
    };
    println!(
        "cumulative adversary power {:.4}, {threshold} {:.4}",
        record.final_power, record.final_threshold
    );
    if let Some(cert) = &record.certificate {
        println!(
            "assessment certificate: {} (epoch {}, roster {:?})",
            cert.to_certificate().fingerprint(),
            record.epoch,
            record.roster
        );
    }
    if !record.traffic.is_empty() {
        let wire: u64 = record.traffic.iter().map(|l| l.wire_bytes).sum();
        let messages: u64 = record.traffic.iter().map(|l| l.messages).sum();
        println!("job traffic: {messages} messages, {wire} bytes on the wire");
    }
    let preview: Vec<u32> = record.released.iter().copied().take(8).collect();
    println!(
        "released ids: {preview:?}{}",
        if record.released.len() > preview.len() {
            " …"
        } else {
            ""
        }
    );
}

/// `gendpr submit`: queue one job on a running daemon.
fn cmd_submit(flags: &HashMap<String, String>) -> Result<(), CliError> {
    let client = service_client(flags)?;
    let spec = flags.get("snps").map_or("all", String::as_str);
    let status = client
        .status()
        .map_err(|e| format!("reaching the daemon: {e}"))?;
    let panel = parse_snp_spec(spec, status.panel_len)?;
    if flags.contains_key("no-wait") {
        let job_id = client.submit(panel, 0).map_err(|e| e.to_string())?;
        println!("job {job_id} queued; fetch it later with `gendpr results --job {job_id}`");
    } else {
        let record = client
            .submit_and_wait(panel, 0)
            .map_err(|e| e.to_string())?;
        print_record(&record);
    }
    Ok(())
}

/// `gendpr status`: the daemon's snapshot, including cumulative per-link
/// member traffic.
fn cmd_status(flags: &HashMap<String, String>) -> Result<(), CliError> {
    let status = service_client(flags)?
        .status()
        .map_err(|e| format!("reaching the daemon: {e}"))?;
    println!(
        "federation: {} GDOs, leader GDO {}, panel width {}",
        status.gdos, status.leader, status.panel_len
    );
    println!(
        "jobs: {} done, {} queued | cumulative release: {} SNPs",
        status.jobs_done, status.jobs_queued, status.released_total
    );
    println!(
        "scheduler: {}/{} workers busy, queue {}/{}",
        status.workers_busy,
        status.workers,
        status.queue.len(),
        status.max_queue
    );
    if let Some(track) = status.track {
        println!(
            "replica track {track} | {} fleet claim{} open",
            status.claims_open,
            if status.claims_open == 1 { "" } else { "s" }
        );
    }
    for job in &status.queue {
        println!("  job {}: queue position {}", job.job_id, job.position);
    }
    for link in &status.links {
        println!(
            "link {} → {}: {} messages, {} wire bytes ({} plaintext)",
            link.from, link.to, link.messages, link.wire_bytes, link.plaintext_bytes
        );
    }
    if flags.contains_key("metrics") {
        // The same Prometheus text document `serve --metrics-addr` serves,
        // fetched over the client protocol so no HTTP endpoint is needed.
        print!("{}", status.metrics);
    }
    Ok(())
}

/// `gendpr results`: fetch one finished job's ledger record.
fn cmd_results(flags: &HashMap<String, String>) -> Result<(), CliError> {
    let job_id: u64 = required(flags, "job")?
        .parse()
        .map_err(|_| "--job: expected a job id".to_string())?;
    match service_client(flags)?
        .results(job_id)
        .map_err(|e| format!("reaching the daemon: {e}"))?
    {
        Some(record) => print_record(&record),
        None => println!("no record for job {job_id} (still queued, running, or never existed)"),
    }
    Ok(())
}

/// `gendpr stop`: ask the daemon to finish the in-flight job and exit.
fn cmd_stop(flags: &HashMap<String, String>) -> Result<(), CliError> {
    service_client(flags)?
        .shutdown()
        .map_err(|e| format!("reaching the daemon: {e}"))?;
    println!("shutdown requested; the daemon exits after the in-flight job");
    Ok(())
}

fn cmd_attack(flags: &HashMap<String, String>) -> Result<(), CliError> {
    let release_path = required(flags, "release")?;
    let text = std::fs::read_to_string(release_path)
        .map_err(|e| format!("reading {release_path}: {e}"))?;
    let release = GwasRelease::from_tsv(&text)?;
    if release.is_empty() {
        return Err(CliError::from("release contains no SNPs".to_string()));
    }

    let key = signing_key(flags);
    let read = |name: &str| -> Result<vcf::VariantFile, String> {
        let path = required(flags, name)?;
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        vcf::read_signed(&text, &key).map_err(|e| format!("{path}: {e}"))
    };
    let victims = read("victims")?;
    let reference = read("reference")?;
    let fpr: f64 = flag(flags, "fpr", 0.1)?;

    for (label, statistic) in [
        ("LR-test", AttackStatistic::LikelihoodRatio),
        ("Homer distance", AttackStatistic::HomerDistance),
    ] {
        let attacker = MembershipAttacker::calibrate_with(
            release.adversary_view(),
            &reference.genotypes,
            fpr,
            statistic,
        );
        let power = attacker.power_against(&victims.genotypes);
        println!(
            "{label:>16}: detection power {power:.3} against {} victims at FPR {fpr}",
            victims.genotypes.individuals()
        );
    }
    println!("(power is the fraction of the victim file's genomes flagged as study participants)");
    Ok(())
}
