//! `hydra-bench list | run <name>... | run all`: regenerates the registered
//! experiments into `results/` (or `HYDRA_RESULTS_DIR`) at `HYDRA_SCALE`,
//! then exits non-zero if any experiment's claim failed.

#![forbid(unsafe_code)]

use std::process::{Command, ExitCode, Stdio};

use hydra_bench::{results_dir, run, select, Scale, EXPERIMENTS};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let ok = match args.as_slice() {
        ["list"] => {
            for e in EXPERIMENTS {
                let clock = if e.wall_clock { "wall" } else { "virtual" };
                println!("{:<18} {:<18} {clock:<8} {}", e.name, e.stem, e.title);
            }
            true
        }
        ["run", names @ ..] if !names.is_empty() => match (select(names), Scale::from_env()) {
            (Ok(one), Ok(scale)) if one.len() == 1 => {
                run(&one, scale, &results_dir(), &mut std::io::stderr())
            }
            (Ok(experiments), Ok(_)) => run_each_in_a_process(&experiments),
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("hydra-bench: {e}");
                return ExitCode::from(2);
            }
        },
        _ => {
            eprintln!("usage: hydra-bench list | run <name>... | run all");
            return ExitCode::from(2);
        }
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs each experiment as `hydra-bench run <name>` and, once all have run,
/// prints what each one wrote to stderr (its failed claims, or the panic that
/// stopped it) and the exit status of each that failed. A process each keeps
/// one experiment's panic from stopping the rest and its peak memory its own.
fn run_each_in_a_process(experiments: &[&hydra_bench::Experiment]) -> bool {
    let exe = std::env::current_exe().expect("path of the running executable");
    let mut ok = true;
    let mut stderr = Vec::new();
    for e in experiments {
        let out = Command::new(&exe)
            .args(["run", e.name])
            .stdout(Stdio::inherit())
            .stderr(Stdio::piped())
            .output()
            .expect("run an experiment");
        stderr.extend(out.stderr);
        if !out.status.success() {
            ok = false;
            stderr.extend(format!("{}: {}\n", e.name, out.status).into_bytes());
        }
    }
    eprint!("{}", String::from_utf8_lossy(&stderr));
    ok
}
