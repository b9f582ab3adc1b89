//! Proves the `--daemon` modes of the `sweep` and `pareto` binaries print
//! byte-identical JSON to their in-process modes, against a real daemon.

use std::process::Command;
use std::time::Duration;

use service::{Daemon, DaemonConfig};

fn bin_output(exe: &str, args: &[&str]) -> Vec<u8> {
    let output = Command::new(exe).args(args).output().expect("binary runs");
    assert!(
        output.status.success(),
        "{exe} {args:?} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    output.stdout
}

#[test]
fn sweep_and_pareto_daemon_modes_match_in_process_json_byte_for_byte() {
    let socket =
        std::env::temp_dir().join(format!("sweepd-experiments-{}.sock", std::process::id()));
    let daemon = Daemon::start(DaemonConfig::new(&socket)).expect("daemon starts");
    assert!(service::wait_for_socket(&socket, Duration::from_secs(10)));
    let socket_str = socket.to_str().expect("utf-8 socket path");

    let sweep = env!("CARGO_BIN_EXE_sweep");
    let in_process = bin_output(sweep, &["--small", "--json"]);
    let via_daemon = bin_output(sweep, &["--small", "--json", "--daemon", socket_str]);
    assert!(in_process == via_daemon, "sweep --daemon JSON diverged from in-process");

    // A second pass is warm in the daemon but cold in-process: still equal.
    let warm = bin_output(sweep, &["--small", "--json", "--daemon", socket_str]);
    assert!(in_process == warm, "warm sweep --daemon JSON diverged");

    // Generated workloads go through the gen-spec registration path.
    let gen = "family=mux-tree,seed=11,count=4";
    let in_process = bin_output(sweep, &["--json", "--gen", gen]);
    let via_daemon = bin_output(sweep, &["--json", "--gen", gen, "--daemon", socket_str]);
    assert!(in_process == via_daemon, "sweep --gen --daemon JSON diverged");

    let pareto = env!("CARGO_BIN_EXE_pareto");
    let in_process = bin_output(pareto, &["--small", "--json"]);
    let via_daemon = bin_output(pareto, &["--small", "--json", "--daemon", socket_str]);
    assert!(in_process == via_daemon, "pareto --daemon JSON diverged from in-process");

    // An explore job with generated circuits: the daemon registers them
    // from the spec strings, in-process runs the batch the builder made.
    let args = ["--json", "--gen", "family=random-dag,seed=42,count=12", "--voltage", "per-op-3"];
    let in_process = bin_output(pareto, &args);
    let via_daemon = bin_output(pareto, &[&args[..], &["--daemon", socket_str]].concat());
    assert!(in_process == via_daemon, "pareto --gen --daemon JSON diverged from in-process");

    daemon.shutdown();
    daemon.join();
}
