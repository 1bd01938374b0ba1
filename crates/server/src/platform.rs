//! The six server platforms of Table II.

use greenhetero_core::error::CoreError;
use greenhetero_core::types::{ConfigId, MegaHertz, PowerRange, Watts};

/// CPU vs. accelerator platforms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlatformClass {
    /// A general-purpose CPU server.
    Cpu,
    /// A GPU-accelerated server (the Titan Xp node).
    Gpu,
}

/// The six platforms of Table II.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)] // variant names are the platform names
pub enum PlatformKind {
    XeonE52620,
    XeonE52650,
    XeonE52603,
    CoreI78700K,
    CoreI54460,
    TitanXp,
}

/// Static description of one platform (one row of Table II, plus the
/// microarchitectural factors the ground-truth models need).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlatformSpec {
    /// Which platform this is.
    pub kind: PlatformKind,
    /// Display name.
    pub name: &'static str,
    /// Nominal (base) frequency.
    pub frequency: MegaHertz,
    /// Socket count.
    pub sockets: u32,
    /// Total hardware threads/cores (CUDA cores for the GPU).
    pub cores: u32,
    /// Nameplate peak power.
    pub peak: Watts,
    /// Idle power.
    pub idle: Watts,
    /// CPU or GPU.
    pub class: PlatformClass,
    /// Per-core per-GHz throughput factor relative to the Sandy/Ivy Bridge
    /// Xeons (newer microarchitectures do more per cycle).
    pub ipc_factor: f64,
}

impl PlatformKind {
    /// All six platforms, in Table II order.
    pub const ALL: [PlatformKind; 6] = [
        PlatformKind::XeonE52620,
        PlatformKind::XeonE52650,
        PlatformKind::XeonE52603,
        PlatformKind::CoreI78700K,
        PlatformKind::CoreI54460,
        PlatformKind::TitanXp,
    ];

    /// The platform's spec (Table II row).
    #[must_use]
    pub fn spec(self) -> PlatformSpec {
        use PlatformKind::*;
        let (name, ghz, sockets, cores, peak, idle, class, ipc) = match self {
            // name, base GHz, sockets, cores, peak W, idle W, class, ipc
            XeonE52620 => (
                "Xeon E5-2620",
                2.0,
                2,
                12,
                178.0,
                88.0,
                PlatformClass::Cpu,
                1.00,
            ),
            XeonE52650 => (
                "Xeon E5-2650",
                2.0,
                1,
                8,
                112.0,
                66.0,
                PlatformClass::Cpu,
                1.05,
            ),
            XeonE52603 => (
                "Xeon E5-2603",
                1.8,
                1,
                4,
                79.0,
                58.0,
                PlatformClass::Cpu,
                0.95,
            ),
            CoreI78700K => (
                "Core i7-8700K",
                3.7,
                1,
                6,
                88.0,
                39.0,
                PlatformClass::Cpu,
                1.45,
            ),
            CoreI54460 => (
                "Core i5-4460",
                3.2,
                1,
                4,
                96.0,
                47.0,
                PlatformClass::Cpu,
                1.25,
            ),
            TitanXp => (
                "Nvidia Titan Xp",
                1.582,
                1,
                3840,
                411.0,
                149.0,
                PlatformClass::Gpu,
                1.00,
            ),
        };
        PlatformSpec {
            kind: self,
            name,
            frequency: MegaHertz::from_ghz(ghz),
            sockets,
            cores,
            peak: Watts::new(peak),
            idle: Watts::new(idle),
            class,
            ipc_factor: ipc,
        }
    }

    /// Stable identifier for database keys.
    #[must_use]
    pub fn id(self) -> ConfigId {
        ConfigId::new(self as u32)
    }

    /// Short display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        self.spec().name
    }
}

impl std::fmt::Display for PlatformKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl PlatformSpec {
    /// The nameplate power envelope `[idle, peak]`.
    ///
    /// # Errors
    ///
    /// Never fails for the built-in Table II rows; kept fallible for
    /// user-constructed specs.
    pub fn nameplate_range(&self) -> Result<PowerRange, CoreError> {
        PowerRange::new(self.idle, self.peak)
    }

    /// Nameplate dynamic power span (`peak − idle`).
    #[must_use]
    pub fn dynamic_span(&self) -> Watts {
        self.peak - self.idle
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_two_rows_match_the_paper() {
        let e5 = PlatformKind::XeonE52620.spec();
        assert_eq!(e5.sockets, 2);
        assert_eq!(e5.cores, 12);
        assert_eq!(e5.peak, Watts::new(178.0));
        assert_eq!(e5.idle, Watts::new(88.0));
        assert_eq!(e5.frequency, MegaHertz::from_ghz(2.0));

        let i5 = PlatformKind::CoreI54460.spec();
        assert_eq!(i5.peak, Watts::new(96.0));
        assert_eq!(i5.idle, Watts::new(47.0));

        let gpu = PlatformKind::TitanXp.spec();
        assert_eq!(gpu.cores, 3840);
        assert_eq!(gpu.peak, Watts::new(411.0));
        assert_eq!(gpu.class, PlatformClass::Gpu);
    }

    #[test]
    fn ids_are_unique_and_stable() {
        let mut ids: Vec<u32> = PlatformKind::ALL.iter().map(|p| p.id().raw()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 6);
    }

    #[test]
    fn all_envelopes_are_valid() {
        for p in PlatformKind::ALL {
            let spec = p.spec();
            let range = spec.nameplate_range().unwrap();
            assert!(range.peak() > range.idle(), "{p}");
            assert!(spec.dynamic_span().value() > 0.0);
            assert!(spec.ipc_factor > 0.0);
        }
    }

    #[test]
    fn newer_microarchitectures_have_higher_ipc() {
        assert!(
            PlatformKind::CoreI78700K.spec().ipc_factor
                > PlatformKind::CoreI54460.spec().ipc_factor
        );
        assert!(
            PlatformKind::CoreI54460.spec().ipc_factor > PlatformKind::XeonE52620.spec().ipc_factor
        );
    }

    #[test]
    fn display_names() {
        assert_eq!(PlatformKind::XeonE52603.to_string(), "Xeon E5-2603");
        assert_eq!(PlatformKind::TitanXp.to_string(), "Nvidia Titan Xp");
    }
}
