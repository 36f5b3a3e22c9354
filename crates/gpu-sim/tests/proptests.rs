//! Property-based tests for the GPU execution model.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use bd_gpu_sim::*;
use proptest::prelude::*;

fn arb_shape() -> impl Strategy<Value = MmaShape> {
    prop_oneof![
        Just(MmaShape::M16N8K16),
        Just(MmaShape::M16N8K8),
        Just(MmaShape::M16N8K32Fp4),
    ]
}

fn arb_operand() -> impl Strategy<Value = Operand> {
    prop_oneof![Just(Operand::A), Just(Operand::B), Just(Operand::Acc)]
}

proptest! {
    /// coords/position are mutual inverses for every layout and slot.
    #[test]
    fn fragment_mapping_inverts(shape in arb_shape(), operand in arb_operand(),
                                lane in 0usize..32, reg_seed in 0usize..16) {
        let layout = FragmentLayout::new(shape, operand);
        let reg = reg_seed % layout.regs_per_lane();
        let (r, c) = layout.coords(lane, reg);
        prop_assert_eq!(layout.position(r, c), (lane, reg));
    }

    /// A tile survives ldmatrix → stsm for every layout.
    #[test]
    fn ldmatrix_stsm_round_trip(shape in arb_shape(), operand in arb_operand(), seed: u64) {
        let layout = FragmentLayout::new(shape, operand);
        let (rows, cols) = layout.dims();
        let mut state = seed;
        let tile = Tile::from_fn(rows, cols, |_, _| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as i32 % 17) as f32 * 0.25
        });
        let frag = ldmatrix(&tile, layout);
        prop_assert_eq!(stsm(&frag, layout), tile);
    }

    /// mma through fragments equals the dense reference product.
    #[test]
    fn mma_equals_reference(seed: u64) {
        let shape = MmaShape::M16N8K16;
        let mut s = seed;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((s >> 33) as i32 % 9) as f32 * 0.5 - 2.0
        };
        let a = Tile::from_fn(16, 16, |_, _| next());
        let b = Tile::from_fn(16, 8, |_, _| next());
        let fa = ldmatrix(&a, FragmentLayout::new(shape, Operand::A));
        let fb = ldmatrix(&b, FragmentLayout::new(shape, Operand::B));
        let mut acc = AccFragment::zeroed(shape);
        mma(shape, &fa, &fb, &mut acc);
        prop_assert!(acc.to_tile().max_abs_diff(&a.matmul(&b)) < 0.05);
    }

    /// lop3 computes its LUT for arbitrary immediates and inputs.
    #[test]
    fn lop3_is_a_lut(a: u32, b: u32, c: u32, imm: u8) {
        let out = lop3(a, b, c, imm);
        for bit in 0..32 {
            let idx = (((a >> bit) & 1) << 2) | (((b >> bit) & 1) << 1) | ((c >> bit) & 1);
            let expect = (imm >> idx) & 1;
            prop_assert_eq!((out >> bit) & 1, u32::from(expect));
        }
    }

    /// shfl_xor butterfly computes the same reduction on every lane as a
    /// sequential fold, for any associative-commutative op (max here).
    #[test]
    fn shfl_reduces_like_fold(values in prop::collection::vec(-100.0f32..100.0, 32)) {
        let arr: [f32; 32] = values.clone().try_into().unwrap();
        let (out, steps) = shfl_xor_reduce(&arr, f32::max);
        let expect = values.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
        prop_assert_eq!(steps, 5);
        for &o in &out {
            prop_assert_eq!(o, expect);
        }
    }

    /// Bank-conflict count is invariant under address permutation and
    /// bounded by [optimal, 32 × optimal].
    #[test]
    fn conflicts_bounded_and_permutation_invariant(
        mut addrs in prop::collection::vec(0usize..4096, 32),
        swap in prop::collection::vec((0usize..32, 0usize..32), 0..8),
    ) {
        // Align to 4-byte words.
        for a in &mut addrs {
            *a &= !3;
        }
        let t1 = warp_transactions(&addrs, 4);
        let opt = smem::optimal_transactions(&addrs, 4).max(1);
        prop_assert!(t1 >= opt, "{t1} < optimal {opt}");
        prop_assert!(t1 <= opt * 32);
        let mut shuffled = addrs.clone();
        for (i, j) in swap {
            shuffled.swap(i, j);
        }
        prop_assert_eq!(warp_transactions(&shuffled, 4), t1);
    }

    /// Cost model monotonicity: more bytes, more MACs, or more CUDA slots
    /// never make a kernel faster.
    #[test]
    fn cost_is_monotone(bytes in 1e3f64..1e9, macs in 0f64..1e10, slots in 0f64..1e10) {
        let arch = GpuArch::a100();
        let mut p = KernelProfile::new("m");
        p.ctas = 512.0;
        p.dram_read_bytes = bytes;
        p.tc_macs_fp16 = macs;
        p.cuda.misc = slots;
        let base = arch.evaluate(&p).total;
        let mut bigger = p.clone();
        bigger.dram_read_bytes *= 1.5;
        prop_assert!(arch.evaluate(&bigger).total >= base);
        let mut bigger = p.clone();
        bigger.tc_macs_fp16 += 1e9;
        prop_assert!(arch.evaluate(&bigger).total >= base);
        let mut bigger = p.clone();
        bigger.cuda.dequant += 1e9;
        prop_assert!(arch.evaluate(&bigger).total >= base);
    }

    /// Occupancy factor is monotone in grid size and bounded in (0, 1].
    #[test]
    fn occupancy_monotone(ctas in 1f64..100000.0, warps in 1f64..16.0) {
        let arch = GpuArch::h100();
        let f = arch.occupancy_factor(ctas, warps);
        prop_assert!(f > 0.0 && f <= 1.0);
        prop_assert!(arch.occupancy_factor(ctas * 2.0, warps) >= f);
        prop_assert!(arch.occupancy_factor(ctas, (warps * 2.0).min(32.0)) >= f);
    }

    /// Overlap combinator bounds: total is at least the max component and
    /// at most the serial sum (plus launch overhead).
    #[test]
    fn latency_within_roofline_bounds(bytes in 1e4f64..1e9, macs in 1e3f64..1e10) {
        let arch = GpuArch::rtx4090();
        let mut p = KernelProfile::new("m");
        p.ctas = 4096.0;
        p.warps_per_cta = 8.0;
        p.dram_read_bytes = bytes;
        p.tc_macs_fp16 = macs;
        let b = arch.evaluate(&p);
        let serial = b.t_mem + b.t_tc + b.t_cuda + b.t_smem;
        prop_assert!(b.total + 1e-12 >= b.t_mem.max(b.t_tc), "below roofline");
        prop_assert!(b.total <= serial / b.occupancy + b.t_launch + 1e-9, "above serial");
    }

    /// `.devspec` render → parse is the identity on ANY valid device
    /// profile: every field round-trips bitwise (f64 `Display` is
    /// shortest-round-trip).
    #[test]
    fn devspec_round_trips_arbitrary_valid_profiles(
        name in prop_oneof![
            Just("TestGPU"), Just("X-2000"), Just("dev_under_test"), Just("RTX PRO 6000"),
        ],
        gen in prop_oneof![
            Just(ArchGen::Ampere), Just(ArchGen::Ada),
            Just(ArchGen::Hopper), Just(ArchGen::Blackwell),
        ],
        sms in 1u32..1024,
        clock_ghz in 0.1f64..5.0,
        dram_bw_gbs in 1.0f64..10000.0,
        dram_gb in 1.0f64..256.0,
        tc_fp16_tflops in 1.0f64..5000.0,
        tc_fp8_tflops in 0.0f64..5000.0,
        tc_fp4_tflops in 0.0f64..5000.0,
        cuda_fp32_tflops in 1.0f64..500.0,
        smem_kb_per_sm in 1u32..512,
        l2_mb in 0.5f64..256.0,
        mem_efficiency in 0.01f64..1.0,
        launch_overhead_us in 0.1f64..20.0,
        warps_to_saturate in 1.0f64..32.0,
        cuda_issue_efficiency in 0.01f64..1.0,
    ) {
        let arch = GpuArch {
            name: name.to_string(),
            gen,
            sms,
            clock_ghz,
            dram_bw_gbs,
            dram_gb,
            tc_fp16_tflops,
            tc_fp8_tflops,
            tc_fp4_tflops,
            cuda_fp32_tflops,
            smem_kb_per_sm,
            l2_mb,
            mem_efficiency,
            launch_overhead_us,
            warps_to_saturate,
            cuda_issue_efficiency,
        };
        let text = DeviceSpec::from_arch(arch.clone()).to_text();
        let parsed = DeviceSpec::parse(&text).expect("rendered spec parses");
        prop_assert_eq!(parsed.arch(), &arch, "round trip is not the identity");
    }

    /// Every class of malformed `.devspec` input is rejected with the
    /// matching *typed* error, never a panic or a silent default.
    #[test]
    fn devspec_rejects_malformed_input_with_typed_errors(mutation in 0usize..6) {
        let good = DeviceSpec::from_arch(GpuArch::a100()).to_text();
        let (bad, check): (String, fn(&SpecError) -> bool) = match mutation {
            0 => (
                good.lines().filter(|l| !l.starts_with("clock_ghz"))
                    .collect::<Vec<_>>().join("\n"),
                |e| matches!(e, SpecError::MissingKey { .. }),
            ),
            1 => (
                format!("{good}sms = 99\n"),
                |e| matches!(e, SpecError::DuplicateKey { .. }),
            ),
            2 => (
                format!("{good}bogus_key = 1\n"),
                |e| matches!(e, SpecError::UnknownKey { .. }),
            ),
            3 => (
                good.replace("gen = ampere", "gen = pascal"),
                |e| matches!(e, SpecError::BadValue { .. }),
            ),
            4 => (
                good.replace("[device]", "just some garbage"),
                |e| matches!(e, SpecError::Syntax { .. }),
            ),
            _ => (
                good.replace("mem_efficiency = 0.82", "mem_efficiency = 1.5"),
                |e| matches!(e, SpecError::BadValue { .. }),
            ),
        };
        let err = DeviceSpec::parse(&bad).expect_err("malformed input must not parse");
        prop_assert!(check(&err), "mutation {} produced wrong error: {}", mutation, err);
    }

    /// Hierarchical all-reduce pricing for ANY generated fleet is finite,
    /// non-negative, and never beats a same-size flat (single-switch)
    /// fleet over the topology's best link; parallel per-island swap never
    /// costs more than serializing the same bytes over the host link.
    #[test]
    fn hierarchical_pricing_bounded_below_by_ideal_flat(
        island_sizes in prop::collection::vec(1usize..4, 1..4),
        device_pick in prop::collection::vec(0usize..5, 9),
        link_params in prop::collection::vec((1.0f64..1000.0, 0.1f64..50.0), 5),
        payload in 1e3f64..1e8,
    ) {
        let device_names = ["a100", "rtx4090", "h100", "rtx5090", "rtx_pro6000"];
        let mut text = String::from(
            "[topology]\nname = generated\ncross_link = cross\nhost_link = host\n",
        );
        let (cross_bw, cross_lat) = link_params[3];
        let (host_bw, host_lat) = link_params[4];
        text.push_str(&format!("[link cross]\ngbs = {cross_bw}\nlatency_us = {cross_lat}\n"));
        text.push_str(&format!("[link host]\ngbs = {host_bw}\nlatency_us = {host_lat}\n"));
        let mut pick = device_pick.iter().copied().cycle();
        let mut best_bw = cross_bw;
        let mut best_lat = cross_lat;
        for (i, &size) in island_sizes.iter().enumerate() {
            let (bw, lat) = link_params[i];
            best_bw = best_bw.max(bw);
            best_lat = best_lat.min(lat);
            let members: Vec<&str> = (0..size)
                .map(|_| device_names[pick.next().unwrap()])
                .collect();
            text.push_str(&format!("[link l{i}]\ngbs = {bw}\nlatency_us = {lat}\n"));
            text.push_str(&format!(
                "[island i{i}]\ndevices = {}\nlink = l{i}\n",
                members.join(", ")
            ));
        }
        let topo = TopologySpec::parse(&text)
            .expect("generated topology parses")
            .resolve()
            .expect("builtin devices resolve");
        let total: usize = island_sizes.iter().sum();
        let ideal = Topology::flat(InterconnectModel::new(best_bw, best_lat));
        for devices in 1..=total {
            let s = topo.allreduce_s(payload, devices);
            prop_assert!(s.is_finite() && s >= 0.0, "devices={}: {}", devices, s);
            let floor = ideal.allreduce_s(payload, devices);
            prop_assert!(
                s + 1e-15 >= floor,
                "devices={}: hierarchical {} beat ideal flat {}", devices, s, floor
            );
        }
        // Per-device parallel swap vs serializing the total: no island
        // host override is present, so every share moves on the global
        // host link and max-of-shares can't exceed the serial transfer.
        let shares: Vec<f64> = (0..total).map(|d| payload * (d + 1) as f64 / total as f64).collect();
        let total_bytes: f64 = shares.iter().sum();
        let parallel = topo.swap_transfer_s(total_bytes, &shares);
        prop_assert!(parallel.is_finite() && parallel >= 0.0);
        let serial = InterconnectModel::new(host_bw, host_lat).transfer_s(total_bytes);
        prop_assert!(
            parallel <= serial + 1e-15,
            "parallel swap {} above serial host transfer {}", parallel, serial
        );
    }
}
