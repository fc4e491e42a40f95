//! Accelerator hardware profiles.

const GIB: u64 = 1 << 30;

/// Capability description of one accelerator.
///
/// The numbers are the published spec-sheet values; the cost model applies
/// efficiency factors on top, so these should stay at their nominal values.
#[derive(Debug, Clone, PartialEq)]
pub struct HardwareProfile {
    /// Human-readable name, e.g. `"H200"`.
    pub name: String,
    /// Device memory capacity in bytes.
    pub vram_bytes: u64,
    /// Device memory bandwidth in bytes/second.
    pub mem_bw: f64,
    /// Dense FP16/BF16 throughput in FLOP/s.
    pub flops: f64,
    /// Host link (PCIe or equivalent) bandwidth in bytes/second, per
    /// direction. Host-to-device and device-to-host streams are independent.
    pub pcie_bw: f64,
    /// Fixed per-transfer host-link latency in microseconds (driver +
    /// DMA setup).
    pub pcie_latency_us: u64,
}

impl HardwareProfile {
    /// NVIDIA GeForce RTX 4090: 24 GiB GDDR6X, PCIe 4.0 x16.
    pub fn rtx4090() -> Self {
        HardwareProfile {
            name: "RTX4090".to_string(),
            vram_bytes: 24 * GIB,
            mem_bw: 1.008e12,
            flops: 82.6e12,
            pcie_bw: 25.0e9,
            pcie_latency_us: 15,
        }
    }

    /// NVIDIA RTX A6000: 48 GiB GDDR6, PCIe 4.0 x16.
    pub fn a6000() -> Self {
        HardwareProfile {
            name: "A6000".to_string(),
            vram_bytes: 48 * GIB,
            mem_bw: 0.768e12,
            flops: 77.4e12,
            pcie_bw: 25.0e9,
            pcie_latency_us: 15,
        }
    }

    /// NVIDIA H200: 141 GiB HBM3e, PCIe 5.0 x16.
    pub fn h200() -> Self {
        HardwareProfile {
            name: "H200".to_string(),
            vram_bytes: 141 * GIB,
            mem_bw: 4.8e12,
            flops: 989.0e12,
            pcie_bw: 55.0e9,
            pcie_latency_us: 10,
        }
    }

    /// Huawei Ascend 910B: 64 GiB HBM2e, PCIe 4.0 x16 host link.
    pub fn ascend910b() -> Self {
        HardwareProfile {
            name: "Ascend910B".to_string(),
            vram_bytes: 64 * GIB,
            mem_bw: 1.0e12,
            flops: 320.0e12,
            pcie_bw: 25.0e9,
            pcie_latency_us: 20,
        }
    }

    /// All built-in profiles, handy for sweeps.
    pub fn all() -> Vec<HardwareProfile> {
        vec![
            Self::rtx4090(),
            Self::a6000(),
            Self::h200(),
            Self::ascend910b(),
        ]
    }

    /// Looks a profile up by (case-insensitive) name.
    pub fn by_name(name: &str) -> Option<HardwareProfile> {
        Self::all()
            .into_iter()
            .find(|p| p.name.eq_ignore_ascii_case(name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_have_sane_ordering() {
        let h200 = HardwareProfile::h200();
        let r4090 = HardwareProfile::rtx4090();
        let a6000 = HardwareProfile::a6000();
        assert!(h200.vram_bytes > a6000.vram_bytes);
        assert!(a6000.vram_bytes > r4090.vram_bytes);
        assert!(h200.mem_bw > r4090.mem_bw);
        assert!(h200.flops > a6000.flops);
    }

    #[test]
    fn pcie_much_slower_than_hbm() {
        for p in HardwareProfile::all() {
            assert!(
                p.mem_bw / p.pcie_bw > 10.0,
                "{}: HBM should dwarf PCIe",
                p.name
            );
        }
    }

    #[test]
    fn by_name_is_case_insensitive() {
        assert_eq!(HardwareProfile::by_name("h200").unwrap().name, "H200");
        assert_eq!(HardwareProfile::by_name("RTX4090").unwrap().name, "RTX4090");
        assert!(HardwareProfile::by_name("tpu-v5").is_none());
    }
}
