//! Shipped-profile lock: every `.devspec` / `.topo` file embedded in the
//! crate must parse, and the five device profiles must match the legacy
//! hard-coded constructor values field for field. A profile edit that
//! drifts from the published datasheet numbers fails here, not in a
//! downstream figure.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use bd_gpu_sim::{
    builtin_device, builtin_topology, ArchGen, DeviceSpec, GpuArch, TopologySpec, BUILTIN_PROFILES,
    BUILTIN_TOPOLOGIES,
};

/// The five evaluation GPUs' datasheet values (paper §VI), as the legacy
/// constructors hard-coded them before the declarative profiles existed.
fn legacy_expected() -> Vec<(&'static str, GpuArch)> {
    vec![
        (
            "a100",
            GpuArch {
                name: "A100".to_string(),
                gen: ArchGen::Ampere,
                sms: 108,
                clock_ghz: 1.41,
                dram_bw_gbs: 2039.0,
                dram_gb: 80.0,
                tc_fp16_tflops: 312.0,
                tc_fp8_tflops: 0.0,
                tc_fp4_tflops: 0.0,
                cuda_fp32_tflops: 19.5,
                smem_kb_per_sm: 164,
                l2_mb: 40.0,
                mem_efficiency: 0.82,
                launch_overhead_us: 4.0,
                warps_to_saturate: 8.0,
                cuda_issue_efficiency: 0.9,
            },
        ),
        (
            "rtx4090",
            GpuArch {
                name: "RTX4090".to_string(),
                gen: ArchGen::Ada,
                sms: 128,
                clock_ghz: 2.52,
                dram_bw_gbs: 1008.0,
                dram_gb: 24.0,
                tc_fp16_tflops: 165.0,
                tc_fp8_tflops: 330.0,
                tc_fp4_tflops: 0.0,
                cuda_fp32_tflops: 82.6,
                smem_kb_per_sm: 100,
                l2_mb: 72.0,
                mem_efficiency: 0.85,
                launch_overhead_us: 3.5,
                warps_to_saturate: 8.0,
                cuda_issue_efficiency: 0.45,
            },
        ),
        (
            "h100",
            GpuArch {
                name: "H100".to_string(),
                gen: ArchGen::Hopper,
                sms: 132,
                clock_ghz: 1.83,
                dram_bw_gbs: 3350.0,
                dram_gb: 80.0,
                tc_fp16_tflops: 989.0,
                tc_fp8_tflops: 1979.0,
                tc_fp4_tflops: 0.0,
                cuda_fp32_tflops: 67.0,
                smem_kb_per_sm: 228,
                l2_mb: 50.0,
                mem_efficiency: 0.8,
                launch_overhead_us: 3.0,
                warps_to_saturate: 10.0,
                cuda_issue_efficiency: 0.9,
            },
        ),
        (
            "rtx5090",
            GpuArch {
                name: "RTX5090".to_string(),
                gen: ArchGen::Blackwell,
                sms: 170,
                clock_ghz: 2.41,
                dram_bw_gbs: 1792.0,
                dram_gb: 32.0,
                tc_fp16_tflops: 210.0,
                tc_fp8_tflops: 419.0,
                tc_fp4_tflops: 838.0,
                cuda_fp32_tflops: 104.8,
                smem_kb_per_sm: 100,
                l2_mb: 96.0,
                mem_efficiency: 0.86,
                launch_overhead_us: 3.0,
                warps_to_saturate: 8.0,
                cuda_issue_efficiency: 0.5,
            },
        ),
        (
            "rtx_pro6000",
            GpuArch {
                name: "RTX PRO 6000".to_string(),
                gen: ArchGen::Blackwell,
                sms: 188,
                clock_ghz: 2.45,
                dram_bw_gbs: 1792.0,
                dram_gb: 96.0,
                tc_fp16_tflops: 252.0,
                tc_fp8_tflops: 503.0,
                tc_fp4_tflops: 1007.0,
                cuda_fp32_tflops: 118.0,
                smem_kb_per_sm: 100,
                l2_mb: 128.0,
                mem_efficiency: 0.84,
                launch_overhead_us: 3.0,
                warps_to_saturate: 8.0,
                cuda_issue_efficiency: 0.5,
            },
        ),
    ]
}

#[test]
fn every_shipped_devspec_parses_and_matches_the_legacy_values() {
    let expected = legacy_expected();
    assert_eq!(BUILTIN_PROFILES.len(), expected.len());
    for ((key, text), (want_key, want)) in BUILTIN_PROFILES.iter().zip(&expected) {
        assert_eq!(key, want_key, "profile order drifted");
        let spec = DeviceSpec::parse(text)
            .unwrap_or_else(|e| panic!("shipped profile {key} failed to parse: {e}"));
        let arch = spec.arch();
        // Field for field, not just PartialEq: a mismatch names the field.
        assert_eq!(arch.name, want.name, "{key}: name");
        assert_eq!(arch.gen, want.gen, "{key}: gen");
        assert_eq!(arch.sms, want.sms, "{key}: sms");
        assert_eq!(arch.clock_ghz, want.clock_ghz, "{key}: clock_ghz");
        assert_eq!(arch.dram_bw_gbs, want.dram_bw_gbs, "{key}: dram_bw_gbs");
        assert_eq!(arch.dram_gb, want.dram_gb, "{key}: dram_gb");
        assert_eq!(arch.tc_fp16_tflops, want.tc_fp16_tflops, "{key}: tc_fp16");
        assert_eq!(arch.tc_fp8_tflops, want.tc_fp8_tflops, "{key}: tc_fp8");
        assert_eq!(arch.tc_fp4_tflops, want.tc_fp4_tflops, "{key}: tc_fp4");
        assert_eq!(
            arch.cuda_fp32_tflops, want.cuda_fp32_tflops,
            "{key}: cuda_fp32"
        );
        assert_eq!(
            arch.smem_kb_per_sm, want.smem_kb_per_sm,
            "{key}: smem_kb_per_sm"
        );
        assert_eq!(arch.l2_mb, want.l2_mb, "{key}: l2_mb");
        assert_eq!(
            arch.mem_efficiency, want.mem_efficiency,
            "{key}: mem_efficiency"
        );
        assert_eq!(
            arch.launch_overhead_us, want.launch_overhead_us,
            "{key}: launch_overhead_us"
        );
        assert_eq!(
            arch.warps_to_saturate, want.warps_to_saturate,
            "{key}: warps_to_saturate"
        );
        assert_eq!(
            arch.cuda_issue_efficiency, want.cuda_issue_efficiency,
            "{key}: cuda_issue_efficiency"
        );
        // The lookup path and the render→parse round trip agree too.
        assert_eq!(
            builtin_device(key).as_ref(),
            Some(want),
            "{key}: builtin_device"
        );
        let round = DeviceSpec::parse(&spec.to_text()).expect("round trip parses");
        assert_eq!(round.arch(), want, "{key}: to_text round trip");
    }
}

#[test]
fn legacy_constructors_delegate_to_the_shipped_profiles() {
    let constructed = [
        GpuArch::a100(),
        GpuArch::rtx4090(),
        GpuArch::h100(),
        GpuArch::rtx5090(),
        GpuArch::rtx_pro6000(),
    ];
    for (arch, (key, want)) in constructed.iter().zip(legacy_expected()) {
        assert_eq!(arch, &want, "{key}: constructor disagrees with profile");
    }
    assert_eq!(GpuArch::all().len(), 5);
}

#[test]
fn every_shipped_topology_parses_resolves_and_names_real_devices() {
    assert_eq!(BUILTIN_TOPOLOGIES.len(), 2);
    for (key, text) in BUILTIN_TOPOLOGIES {
        let spec = TopologySpec::parse(text)
            .unwrap_or_else(|e| panic!("shipped topology {key} failed to parse: {e}"));
        let topo = spec
            .resolve()
            .unwrap_or_else(|e| panic!("shipped topology {key} failed to resolve: {e}"));
        assert_eq!(topo.name(), key, "{key}: topology name");
        let n = topo
            .device_count()
            .expect("shipped topologies are hierarchical");
        assert!(n > 0);
        assert_eq!(topo.device_archs().len(), n);
        assert_eq!(topo.device_weights().len(), n);
        assert!(topo
            .device_weights()
            .iter()
            .all(|w| w.is_finite() && *w > 0.0));
        assert!(builtin_topology(key).is_some(), "{key}: lookup path");
    }
    // The mixed fleet is the heterogeneity bench substrate: 2×H100 ahead
    // of 2×A100, with the H100s weighted strictly heavier.
    let mixed = builtin_topology("mixed_h100_a100").expect("shipped");
    let names: Vec<&str> = mixed
        .device_archs()
        .iter()
        .map(|a| a.name.as_str())
        .collect();
    assert_eq!(names, ["H100", "H100", "A100", "A100"]);
    let w = mixed.device_weights();
    assert!(w[0] > w[2], "H100 must out-weigh A100");
}
