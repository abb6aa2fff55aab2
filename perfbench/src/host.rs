//! Host and input header: what the numbers were measured on.

use std::fs;

/// The host facts every output starts with.
pub struct Host {
    pub nproc: usize,
    pub pool_width: usize,
    pub cpu_model: String,
    pub l2_bytes: Option<u64>,
    pub l3_bytes: Option<u64>,
}

impl Host {
    pub fn probe() -> Host {
        let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
        let cpu_model = fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Host {
            nproc,
            pool_width: asyrgs::parallel::global().concurrency(),
            cpu_model,
            l2_bytes: cache_bytes(2),
            l3_bytes: cache_bytes(3),
        }
    }
}

/// Size of the first unified or data cache of `level` that cpu0 reports
/// in sysfs.
fn cache_bytes(level: u32) -> Option<u64> {
    let dir = "/sys/devices/system/cpu/cpu0/cache";
    for idx in 0..8 {
        let base = format!("{dir}/index{idx}");
        let Ok(lvl) = fs::read_to_string(format!("{base}/level")) else {
            continue;
        };
        let kind = fs::read_to_string(format!("{base}/type")).unwrap_or_default();
        if lvl.trim() != level.to_string() || kind.trim() == "Instruction" {
            continue;
        }
        let size = fs::read_to_string(format!("{base}/size")).ok()?;
        return parse_size(size.trim());
    }
    None
}

fn parse_size(s: &str) -> Option<u64> {
    let (num, mult) = match s.chars().last()? {
        'K' => (&s[..s.len() - 1], 1u64 << 10),
        'M' => (&s[..s.len() - 1], 1 << 20),
        'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    num.parse::<u64>().ok().map(|v| v * mult)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

pub fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1u64 << 20) as f64
}
