//! The machine and toolchain a result was taken on.

use crate::json::Json;

/// Whether the 4-way Keccak kernel takes its AVX2 dispatch on this host:
/// the same test `ammboost_crypto::keccak::keccak_f1600_x4` makes.
fn keccak_avx2_dispatch() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|line| line.strip_prefix("model name"))
                .and_then(|rest| rest.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The `host` block. The commit comes from `NODEBENCH_COMMIT` (set by
/// `run.py`): the benchmark also runs from checkouts that are not git
/// repositories, so it never asks git itself.
pub fn host_block() -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    let commit = std::env::var("NODEBENCH_COMMIT").unwrap_or_else(|_| "unknown".to_string());
    Json::obj([
        ("nproc", Json::Int(nproc)),
        ("cpu_model", Json::Str(cpu_model())),
        ("keccak_avx2_dispatch", Json::Bool(keccak_avx2_dispatch())),
        ("rustc", Json::str(env!("NODEBENCH_RUSTC"))),
        ("commit", Json::Str(commit)),
    ])
}
