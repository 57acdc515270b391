//! End-to-end tests of the `gendpr` command-line binary: synth → assess →
//! attack over real files in a temp directory.

use gendpr::service::ledger::audit_records;
use gendpr::service::{ReleaseLedger, ServiceClient};
use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_gendpr"))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gendpr-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

#[test]
fn full_cli_workflow() {
    let dir = temp_dir("workflow");
    let data = dir.join("data");
    let release = dir.join("release.tsv");

    let synth = bin()
        .args([
            "synth",
            "--snps",
            "200",
            "--cases",
            "200",
            "--reference",
            "150",
        ])
        .args(["--seed", "3", "--out"])
        .arg(&data)
        .output()
        .expect("synth runs");
    assert!(
        synth.status.success(),
        "{}",
        String::from_utf8_lossy(&synth.stderr)
    );
    assert!(data.join("case.vcf").exists());
    assert!(data.join("reference.vcf").exists());

    let assess = bin()
        .args(["assess", "--gdos", "2", "--case"])
        .arg(data.join("case.vcf"))
        .arg("--reference")
        .arg(data.join("reference.vcf"))
        .arg("--out")
        .arg(&release)
        .output()
        .expect("assess runs");
    assert!(
        assess.status.success(),
        "{}",
        String::from_utf8_lossy(&assess.stderr)
    );
    let stdout = String::from_utf8_lossy(&assess.stdout);
    assert!(stdout.contains("L_safe"), "{stdout}");
    assert!(stdout.contains("assessment certificate"), "{stdout}");
    assert!(release.exists());
    let tsv = std::fs::read_to_string(&release).unwrap();
    assert!(tsv.starts_with("snp\t"));
    assert!(tsv.lines().count() > 1, "release should contain SNPs");

    let attack = bin()
        .args(["attack", "--release"])
        .arg(&release)
        .arg("--victims")
        .arg(data.join("case.vcf"))
        .arg("--reference")
        .arg(data.join("reference.vcf"))
        .output()
        .expect("attack runs");
    assert!(
        attack.status.success(),
        "{}",
        String::from_utf8_lossy(&attack.stderr)
    );
    let stdout = String::from_utf8_lossy(&attack.stdout);
    assert!(stdout.contains("LR-test"), "{stdout}");
    assert!(stdout.contains("Homer distance"), "{stdout}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn assess_rejects_tampered_input() {
    let dir = temp_dir("tamper");
    let data = dir.join("data");
    let synth = bin()
        .args([
            "synth",
            "--snps",
            "50",
            "--cases",
            "40",
            "--reference",
            "40",
            "--out",
        ])
        .arg(&data)
        .output()
        .expect("synth runs");
    assert!(synth.status.success());

    // Flip one genotype character: the signature must fail.
    let case_path = data.join("case.vcf");
    let text = std::fs::read_to_string(&case_path).unwrap();
    let idx = text.find("#GENOTYPES").unwrap() + "#GENOTYPES\n".len();
    let mut bytes = text.into_bytes();
    bytes[idx] = if bytes[idx] == b'0' { b'1' } else { b'0' };
    std::fs::write(&case_path, bytes).unwrap();

    let assess = bin()
        .args(["assess", "--case"])
        .arg(&case_path)
        .arg("--reference")
        .arg(data.join("reference.vcf"))
        .output()
        .expect("assess runs");
    assert!(!assess.status.success(), "tampered input must be rejected");
    let stderr = String::from_utf8_lossy(&assess.stderr);
    assert!(stderr.contains("signature"), "{stderr}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_flags_and_subcommands_error_cleanly() {
    let out = bin().arg("frobnicate").output().expect("runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown subcommand"));

    let help = bin().arg("--help").output().expect("runs");
    assert!(help.status.success());
    assert!(String::from_utf8_lossy(&help.stdout).contains("USAGE"));

    let missing = bin().args(["assess"]).output().expect("runs");
    assert!(!missing.status.success());
    assert!(String::from_utf8_lossy(&missing.stderr).contains("--case"));
}

#[test]
fn strict_flag_parsing_rejects_mistakes() {
    // Unknown flag, with a nearest-match suggestion.
    let typo = bin()
        .args(["assess", "--csae", "x.vcf"])
        .output()
        .expect("runs");
    assert!(!typo.status.success());
    let stderr = String::from_utf8_lossy(&typo.stderr);
    assert!(stderr.contains("unknown flag --csae"), "{stderr}");
    assert!(stderr.contains("did you mean --case"), "{stderr}");

    // Duplicated flag.
    let dup = bin()
        .args(["synth", "--seed", "1", "--seed", "2"])
        .output()
        .expect("runs");
    assert!(!dup.status.success());
    let stderr = String::from_utf8_lossy(&dup.stderr);
    assert!(stderr.contains("more than once"), "{stderr}");

    // Flag at the end with no value.
    let dangling = bin().args(["synth", "--seed"]).output().expect("runs");
    assert!(!dangling.status.success());
    let stderr = String::from_utf8_lossy(&dangling.stderr);
    assert!(stderr.contains("expects a value"), "{stderr}");

    // Stray positional argument.
    let stray = bin()
        .args(["synth", "whatever", "--seed", "1"])
        .output()
        .expect("runs");
    assert!(!stray.status.success());
    let stderr = String::from_utf8_lossy(&stray.stderr);
    assert!(stderr.contains("unexpected argument"), "{stderr}");

    // A flag from another subcommand is unknown here.
    let wrong_cmd = bin()
        .args(["attack", "--gdos", "3"])
        .output()
        .expect("runs");
    assert!(!wrong_cmd.status.success());
    let stderr = String::from_utf8_lossy(&wrong_cmd.stderr);
    assert!(stderr.contains("unknown flag --gdos"), "{stderr}");

    // The per-combination fan-out is gone, and its flag with it; so is
    // the in-process batched assessment: the ledger charges earlier
    // releases.
    for (flag, value) in [("--threads", "2"), ("--batches", "2")] {
        let removed = bin()
            .args(["assess", "--case", "x.vcf", flag, value])
            .output()
            .expect("runs");
        assert_eq!(removed.status.code(), Some(1));
        let stderr = String::from_utf8_lossy(&removed.stderr);
        assert!(stderr.contains(&format!("unknown flag {flag}")), "{stderr}");
    }

    // So are the fault-injection knobs, on `serve`, `tracks` and `node`,
    // the failure detector's probe interval, which the timeout fixes, and
    // the one-shot run's view-change knobs: a silent member aborts it.
    for args in [
        &["serve", "--case", "x.vcf", "--lane-crash-every", "2"][..],
        &["serve", "--case", "x.vcf", "--tcp", "--chaos", "7"],
        &["tracks", "--case", "x.vcf", "--chaos", "7"],
        &[
            "node",
            "--id",
            "0",
            "--peers",
            "127.0.0.1:1",
            "--chaos",
            "7",
        ],
        &["assess", "--case", "x.vcf", "--heartbeat-ms", "100"],
        &[
            "node",
            "--id",
            "0",
            "--peers",
            "127.0.0.1:1",
            "--heartbeat-ms",
            "100",
        ],
        &["assess", "--case", "x.vcf", "--max-epochs", "2"],
        &["assess", "--case", "x.vcf", "--min-quorum", "2"],
        &[
            "node",
            "--id",
            "0",
            "--peers",
            "127.0.0.1:1",
            "--max-epochs",
            "2",
        ],
        &[
            "node",
            "--id",
            "0",
            "--peers",
            "127.0.0.1:1",
            "--min-quorum",
            "2",
        ],
    ] {
        let out = bin().args(args).output().expect("runs");
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let flag = args[args.len() - 2];
        assert!(stderr.contains(&format!("unknown flag {flag}")), "{stderr}");
    }
}

#[test]
fn node_validates_roster_flags() {
    let bad_id = bin()
        .args([
            "node",
            "--id",
            "5",
            "--peers",
            "127.0.0.1:9470,127.0.0.1:9471",
            "--case",
            "missing.vcf",
            "--reference",
            "missing.vcf",
        ])
        .output()
        .expect("runs");
    assert!(!bad_id.status.success());
    let stderr = String::from_utf8_lossy(&bad_id.stderr);
    assert!(stderr.contains("out of range"), "{stderr}");

    let mismatch = bin()
        .args([
            "node",
            "--id",
            "0",
            "--gdos",
            "3",
            "--peers",
            "127.0.0.1:9470,127.0.0.1:9471",
            "--case",
            "missing.vcf",
            "--reference",
            "missing.vcf",
        ])
        .output()
        .expect("runs");
    assert!(!mismatch.status.success());
    let stderr = String::from_utf8_lossy(&mismatch.stderr);
    assert!(stderr.contains("--gdos"), "{stderr}");
}

/// Probes `n` free localhost ports and returns them as a `--peers` roster
/// string. The probe listeners are dropped before returning so the node
/// processes can claim the ports.
fn free_peer_roster(n: usize) -> String {
    let probes: Vec<std::net::TcpListener> = (0..n)
        .map(|_| std::net::TcpListener::bind("127.0.0.1:0").expect("probe port"))
        .collect();
    probes
        .iter()
        .map(|p| p.local_addr().unwrap().to_string())
        .collect::<Vec<_>>()
        .join(",")
}

fn synth_into(dir: &std::path::Path) {
    synth_sized(dir, "60", "40");
}

/// Writes a seed-2 study of `snps` SNPs and `genomes` cases and as many
/// reference genomes to `dir`.
fn synth_sized(dir: &std::path::Path, snps: &str, genomes: &str) {
    let synth = bin()
        .args(["synth", "--snps", snps, "--cases", genomes])
        .args(["--reference", genomes, "--seed", "2", "--out"])
        .arg(dir)
        .output()
        .expect("synth runs");
    assert!(synth.status.success());
}

#[test]
fn lone_node_without_recovery_exits_with_unresponsive_code() {
    let dir = temp_dir("exit-unresponsive");
    synth_into(&dir);
    // Member 0 of a 3-member roster whose other two members never start:
    // the first suspicion is fatal and the typed exit code says "member
    // unresponsive" (4), not a generic 1.
    let out = bin()
        .args(["node", "--id", "0", "--peers", &free_peer_roster(3)])
        .arg("--case")
        .arg(dir.join("case.vcf"))
        .arg("--reference")
        .arg(dir.join("reference.vcf"))
        .args(["--timeout", "2"])
        .output()
        .expect("node runs");
    assert!(!out.status.success());
    assert_eq!(
        out.status.code(),
        Some(4),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("unresponsive"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mismatched_study_parameters_exit_with_security_code() {
    let dir = temp_dir("exit-security");
    synth_into(&dir);
    // Two nodes whose --maf disagree attest different enclave
    // measurements (the measurement covers the study parameters), so the
    // handshake fails and both exit with the security code 5.
    let roster = free_peer_roster(2);
    let spawn = |id: &str, maf: &str| {
        bin()
            .args(["node", "--id", id, "--peers", &roster])
            .arg("--case")
            .arg(dir.join("case.vcf"))
            .arg("--reference")
            .arg(dir.join("reference.vcf"))
            .args(["--timeout", "5", "--maf", maf])
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("node spawns")
    };
    let a = spawn("0", "0.05");
    let b = spawn("1", "0.2");
    let a = a.wait_with_output().expect("node 0 finishes");
    let b = b.wait_with_output().expect("node 1 finishes");
    for (tag, out) in [("node 0", &a), ("node 1", &b)] {
        assert!(!out.status.success(), "{tag} must fail");
        assert_eq!(
            out.status.code(),
            Some(5),
            "{tag} stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Polls `gendpr status` until the daemon at `addr` answers (or panics
/// after ~20 s — long enough for the attestation handshake on a loaded
/// test machine).
fn wait_for_daemon(addr: &str) {
    for _ in 0..100 {
        let probe = bin()
            .args(["status", "--addr", addr])
            .output()
            .expect("status runs");
        if probe.status.success() {
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(200));
    }
    panic!("daemon at {addr} never came up");
}

/// Sends `SIG<name>` to `pid`.
#[cfg(unix)]
fn signal(pid: u32, name: &str) {
    let ok = Command::new("kill")
        .args([&format!("-{name}"), &pid.to_string()])
        .status()
        .expect("kill runs");
    assert!(ok.success(), "kill -{name} {pid} failed");
}

/// Spawns `gendpr serve` over the study `synth_into` wrote to `dir`, with
/// its ledger at `dir/ledger.bin`, listening on `addr`.
fn spawn_serve(dir: &Path, addr: &str, extra: &[&str]) -> Child {
    bin()
        .args(["serve", "--gdos", "2", "--ledger"])
        .arg(dir.join("ledger.bin"))
        .arg("--case")
        .arg(dir.join("case.vcf"))
        .arg("--reference")
        .arg(dir.join("reference.vcf"))
        .args(["--listen", addr, "--timeout", "60"])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("serve spawns")
}

#[test]
fn serve_submit_status_stop_lifecycle() {
    // Loopback-TCP members certify exactly what the in-memory fabric does.
    assert_eq!(serve_lifecycle(false), serve_lifecycle(true));
}

/// Drives two overlapping jobs through a fresh daemon and returns their
/// certificate lines.
fn serve_lifecycle(tcp: bool) -> Vec<String> {
    let dir = temp_dir(&format!("serve-{tcp}"));
    synth_into(&dir);
    let addr = free_peer_roster(1);
    let daemon = spawn_serve(&dir, &addr, if tcp { &["--tcp"] } else { &[] });
    wait_for_daemon(&addr);
    let mut certificates = Vec::new();
    let mut certified = |stdout: &str| {
        let line = stdout
            .lines()
            .find(|l| l.starts_with("assessment certificate"));
        certificates.push(line.expect("a certificate line").to_string());
    };

    // Job 1 over a fresh ledger is seeded with nothing.
    let first = bin()
        .args(["submit", "--addr", &addr, "--snps", "0-29"])
        .output()
        .expect("submit runs");
    assert!(
        first.status.success(),
        "{}",
        String::from_utf8_lossy(&first.stderr)
    );
    let stdout = String::from_utf8_lossy(&first.stdout);
    assert!(stdout.contains("job 1"), "{stdout}");
    assert!(stdout.contains("seeded with 0 prior"), "{stdout}");
    certified(&stdout);

    // Job 2 overlaps job 1's panel: its LR phase must be charged with the
    // SNPs the ledger already released.
    let second = bin()
        .args(["submit", "--addr", &addr, "--snps", "10-49"])
        .output()
        .expect("submit runs");
    assert!(
        second.status.success(),
        "{}",
        String::from_utf8_lossy(&second.stderr)
    );
    let stdout = String::from_utf8_lossy(&second.stdout);
    assert!(stdout.contains("job 2"), "{stdout}");
    assert!(stdout.contains("seeded with"), "{stdout}");
    assert!(
        !stdout.contains("seeded with 0 prior"),
        "job 2 must be seeded with job 1's release: {stdout}"
    );
    certified(&stdout);

    let status = bin()
        .args(["status", "--addr", &addr])
        .output()
        .expect("status runs");
    assert!(status.status.success());
    let stdout = String::from_utf8_lossy(&status.stdout);
    assert!(stdout.contains("jobs: 2 done, 0 queued"), "{stdout}");
    assert!(stdout.contains("link"), "per-link traffic: {stdout}");

    let results = bin()
        .args(["results", "--job", "1", "--addr", &addr])
        .output()
        .expect("results runs");
    assert!(results.status.success());
    assert!(String::from_utf8_lossy(&results.stdout).contains("job 1"));

    let stop = bin()
        .args(["stop", "--addr", &addr])
        .output()
        .expect("stop runs");
    assert!(
        stop.status.success(),
        "{}",
        String::from_utf8_lossy(&stop.stderr)
    );
    let out = daemon.wait_with_output().expect("daemon exits");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("service stopped cleanly"), "{stdout}");
    assert!(dir.join("ledger.bin").exists(), "ledger was persisted");
    let _ = std::fs::remove_dir_all(&dir);
    certificates
}

#[cfg(unix)]
#[test]
fn sigterm_exits_node_with_interrupted_code() {
    let dir = temp_dir("sigterm-node");
    synth_into(&dir);
    // A member waiting (with a long budget) for two peers that never
    // come: SIGTERM must abort it with the dedicated exit code 7, not a
    // generic failure or a raw signal death.
    let node = bin()
        .args(["node", "--id", "0", "--peers", &free_peer_roster(3)])
        .arg("--case")
        .arg(dir.join("case.vcf"))
        .arg("--reference")
        .arg(dir.join("reference.vcf"))
        .args(["--timeout", "60"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("node spawns");
    std::thread::sleep(std::time::Duration::from_millis(800));
    signal(node.id(), "TERM");
    let out = node.wait_with_output().expect("node exits");
    assert_eq!(
        out.status.code(),
        Some(7),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("shutdown signal"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[cfg(unix)]
#[test]
fn sigterm_exits_serve_with_interrupted_code_and_flushes_the_ledger() {
    let dir = temp_dir("sigterm-serve");
    synth_into(&dir);
    let addr = free_peer_roster(1);
    let daemon = spawn_serve(&dir, &addr, &[]);
    wait_for_daemon(&addr);

    // One certified job, then SIGTERM: the daemon finishes cleanly with
    // the interrupted code and the job's record survives on disk.
    let job = bin()
        .args(["submit", "--addr", &addr, "--snps", "0-19"])
        .output()
        .expect("submit runs");
    assert!(
        job.status.success(),
        "{}",
        String::from_utf8_lossy(&job.stderr)
    );
    signal(daemon.id(), "TERM");
    let out = daemon.wait_with_output().expect("daemon exits");
    assert_eq!(
        out.status.code(),
        Some(7),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        std::fs::metadata(dir.join("ledger.bin")).unwrap().len() > 0,
        "the certified job was flushed to the ledger before exit"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn distributed_assess_matches_in_process_release() {
    let dir = temp_dir("distributed");
    let data = dir.join("data");
    let synth = bin()
        .args([
            "synth",
            "--snps",
            "150",
            "--cases",
            "90",
            "--reference",
            "80",
            "--seed",
            "5",
            "--out",
        ])
        .arg(&data)
        .output()
        .expect("synth runs");
    assert!(synth.status.success());

    let in_process = dir.join("in-process.tsv");
    let distributed = dir.join("distributed.tsv");
    let base = |out: &std::path::Path| {
        let mut cmd = bin();
        cmd.args(["assess", "--gdos", "3", "--seed", "9", "--case"])
            .arg(data.join("case.vcf"))
            .arg("--reference")
            .arg(data.join("reference.vcf"))
            .arg("--out")
            .arg(out);
        cmd
    };

    let a = base(&in_process).output().expect("assess runs");
    assert!(a.status.success(), "{}", String::from_utf8_lossy(&a.stderr));
    let b = base(&distributed)
        .arg("--distributed")
        .output()
        .expect("distributed assess runs");
    assert!(b.status.success(), "{}", String::from_utf8_lossy(&b.stderr));
    let stdout = String::from_utf8_lossy(&b.stdout);
    assert!(stdout.contains("wire bytes"), "{stdout}");

    let lhs = std::fs::read(&in_process).unwrap();
    let rhs = std::fs::read(&distributed).unwrap();
    assert!(!lhs.is_empty());
    assert_eq!(
        lhs, rhs,
        "releases must be byte-identical across transports"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[cfg(unix)]
#[test]
fn sigterm_drains_a_loaded_worker_pool_and_flushes_the_ledger() {
    signal_a_loaded_worker_pool("TERM");
}

#[cfg(unix)]
#[test]
fn sigkill_mid_traffic_loses_no_certified_job_and_every_unanswered_panel_recertifies() {
    signal_a_loaded_worker_pool("KILL");
}

/// Loads a two-lane daemon with one certified job and three admitted
/// ones, sends it `SIG<name>`, restarts it over the same ledger and checks
/// that nothing was lost: every answered record survives verbatim, the
/// records pass `audit_records`, the next job is seeded with their union,
/// and every panel that never reached the ledger certifies on
/// resubmission. SIGTERM must drain (exit 7) and answer every admitted
/// job; SIGKILL gives the daemon no chance to.
#[cfg(unix)]
fn signal_a_loaded_worker_pool(name: &str) {
    use std::os::unix::process::ExitStatusExt;
    let dir = temp_dir(&format!("signal-{name}"));
    // Large enough that jobs are still running when the signal lands.
    synth_sized(&dir, "1500", "200");
    let addr = free_peer_roster(1);
    let pool = ["--workers", "2", "--max-queue", "8"];
    let daemon = spawn_serve(&dir, &addr, &pool);
    wait_for_daemon(&addr);

    // The status snapshot reports the pool shape before any job runs.
    let status = bin()
        .args(["status", "--addr", &addr])
        .output()
        .expect("status runs");
    assert!(status.status.success());
    let stdout = String::from_utf8_lossy(&status.stdout);
    assert!(
        stdout.contains("scheduler: 0/2 workers busy, queue 0/8"),
        "{stdout}"
    );

    let client = ServiceClient::new(addr.parse().unwrap());
    let certified = client.submit_and_wait((1000..1500).collect(), 0).unwrap();
    assert!(certified.certificate.is_some());

    // Three more jobs, each with a client waiting on it; the signal lands
    // once all three are admitted, with work in flight.
    let panels: Vec<Vec<u32>> = [0, 250, 500]
        .map(|from| (from..from + 500).collect())
        .into();
    let waiting: Vec<_> = panels
        .iter()
        .cloned()
        .map(|panel| {
            let client = client.clone();
            std::thread::spawn(move || client.submit_and_wait(panel, 0))
        })
        .collect();
    while client
        .status()
        .is_ok_and(|s| s.jobs_done + s.jobs_queued < 4)
    {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    signal(daemon.id(), name);
    let verdicts: Vec<_> = waiting.into_iter().map(|t| t.join().unwrap()).collect();
    let out = daemon.wait_with_output().expect("daemon exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    if name == "KILL" {
        assert_eq!(out.status.signal(), Some(9), "stderr: {stderr}");
    } else {
        // Drained: every admitted job certified or was refused with the
        // typed shutting-down verdict, never left without an answer, and
        // the exit code is the dedicated interrupted one.
        assert_eq!(out.status.code(), Some(7), "stderr: {stderr}");
        assert!(stderr.contains("shutdown signal"), "{stderr}");
        for error in verdicts.iter().filter_map(|v| v.as_ref().err()) {
            assert_eq!(
                error.kind(),
                std::io::ErrorKind::ConnectionAborted,
                "{error}"
            );
        }
    }

    // Every answered job is on disk verbatim.
    let ledger = ReleaseLedger::open(dir.join("ledger.bin")).expect("the ledger reopens");
    for record in verdicts.iter().flatten().chain([&certified]) {
        assert_eq!(ledger.record(record.job_id), Some(record));
    }
    audit_records(ledger.records()).unwrap();
    let released = ledger.records().iter().flat_map(|r| r.released.clone());
    let union: Vec<u32> = released.collect::<BTreeSet<u32>>().into_iter().collect();
    let unanswered: Vec<Vec<u32>> = panels
        .into_iter()
        .filter(|panel| ledger.records().iter().all(|r| &r.panel != panel))
        .collect();
    drop(ledger);

    let daemon = spawn_serve(&dir, &addr, &pool);
    wait_for_daemon(&addr);
    let next = client.submit_and_wait((750..1250).collect(), 0).unwrap();
    assert_eq!(next.forced, union);
    for panel in unanswered {
        let record = client.submit_and_wait(panel, 0).unwrap();
        assert!(record.certificate.is_some(), "job {}", record.job_id);
    }
    client.shutdown().unwrap();
    assert!(daemon.wait_with_output().unwrap().status.success());
    let reopened = ReleaseLedger::open(dir.join("ledger.bin")).unwrap();
    audit_records(reopened.records()).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Reads `gendpr_process_{threads,open_fds,rss_bytes}` from the metrics
/// endpoint at `addr`.
fn process_gauges(addr: &str) -> [i64; 3] {
    let mut stream = TcpStream::connect(addr).expect("connect to exporter");
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n")
        .expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    ["threads", "open_fds", "rss_bytes"].map(|name| {
        let key = format!("gendpr_process_{name} ");
        let value = response.lines().find_map(|line| line.strip_prefix(&key));
        value.and_then(|v| v.parse().ok()).expect(name)
    })
}

/// Resource drift inside one daemon process: once 5 warm-up jobs have
/// run, 20 more may not grow its threads or open descriptors (a leak of
/// one per job or per client connection adds at least 20) or its
/// resident set by more than 4 MiB.
#[cfg(target_os = "linux")]
#[test]
fn twenty_more_jobs_leak_no_thread_fd_or_memory_in_one_daemon() {
    let dir = temp_dir("drift");
    synth_into(&dir);
    let ports = free_peer_roster(2);
    let (addr, metrics) = ports.split_once(',').unwrap();
    let daemon = spawn_serve(&dir, addr, &["--metrics-addr", metrics]);
    wait_for_daemon(addr);
    let client = ServiceClient::new(addr.parse().unwrap());
    let mut jobs = 0u32..;
    let mut run = |count: usize| {
        for job in jobs.by_ref().take(count) {
            let from = job % 40;
            client
                .submit_and_wait((from..from + 20).collect(), 0)
                .unwrap();
        }
        process_gauges(metrics)
    };
    let [threads, fds, rss] = run(5);
    let [threads_after, fds_after, rss_after] = run(20);
    let drift = format!(
        "threads {threads} -> {threads_after}, fds {fds} -> {fds_after}, rss {rss} -> {rss_after}"
    );
    assert!(threads > 0 && fds > 0 && rss > 0, "{drift}");
    assert!(threads_after - threads <= 1, "{drift}");
    assert!(fds_after - fds <= 2, "{drift}");
    assert!(rss_after - rss <= 4 << 20, "{drift}");
    client.shutdown().unwrap();
    assert!(daemon.wait_with_output().unwrap().status.success());
    let _ = std::fs::remove_dir_all(&dir);
}
