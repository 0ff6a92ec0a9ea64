//! Performance model of NIMROD, the extended-MHD fusion simulation of the
//! paper's §VI-C: high-order finite elements in the poloidal plane,
//! pseudo-spectral in the toroidal direction, time-marching with block
//! Jacobi preconditioned GMRES where each Jacobi block is factorized by
//! SuperLU_DIST's 3D algorithm.
//!
//! Task parameters: `mx`, `my` (mesh DoF exponents: `2^mx`, `2^my`) and
//! `lphi` (`floor(2^lphi / 3) + 1` Fourier modes). Tuning parameters
//! (paper Table III):
//!
//! | name   | meaning                                           | range |
//! |--------|---------------------------------------------------|-------|
//! | `NSUP` | max supernode size in SuperLU                     | [30,300) |
//! | `NREL` | relaxed supernode bound in SuperLU                | [10,40) |
//! | `nbx`  | `2^nbx` matrix-assembly blocking, x direction     | [1,3) |
//! | `nby`  | `2^nby` matrix-assembly blocking, y direction     | [1,3) |
//! | `npz`  | `2^npz` processes in the SuperLU 3D grid's z dim  | [0,5) |
//!
//! The model's load-bearing structure:
//!
//! - **`NSUP`** sets BLAS-3 supernode efficiency in the factorization —
//!   interior optimum (small supernodes: no BLAS-3; huge: fill and
//!   imbalance).
//! - **`npz`** trades communication (more z-layers cut the 2D grid's
//!   message volume, the point of the 3D algorithm) against **memory
//!   replication** — large `npz` on large problems exhausts node memory
//!   and the run **fails with OOM**, the exact failure mode the paper
//!   reports distorting `NoTLA` in Fig. 5(c).
//! - **`nbx`/`nby`** set assembly cache blocking — a mild interior
//!   optimum that shifts with the mesh aspect (`mx` vs `my`).
//! - Architecture (Haswell vs KNL) rebalances compute- vs
//!   bandwidth-bound phases, moving the optimum — the paper's Fig. 5(b)
//!   cross-architecture transfer scenario.

use crate::app::{int_param, timing_noise, Application, EvalFailure};
use crate::machine::MachineModel;
use crowdtune_db::ParamMap;
use crowdtune_space::{Param, Space, Value};
use rand::RngCore;

/// NIMROD bound to a mesh/mode task and machine allocation.
#[derive(Debug, Clone)]
pub struct Nimrod {
    /// Mesh exponent in x (`2^mx` DoF).
    pub mx: u32,
    /// Mesh exponent in y (`2^my` DoF).
    pub my: u32,
    /// Toroidal mode exponent.
    pub lphi: u32,
    /// Number of time steps (the paper fixes 30).
    pub steps: u32,
    /// The machine allocation.
    pub machine: MachineModel,
    /// Relative timing-noise level.
    pub noise_sigma: f64,
}

impl Nimrod {
    /// New instance with the paper's 30 time steps.
    pub fn new(mx: u32, my: u32, lphi: u32, machine: MachineModel) -> Self {
        Nimrod {
            mx,
            my,
            lphi,
            steps: 30,
            machine,
            noise_sigma: 0.03,
        }
    }

    /// Fourier mode count: `floor(2^lphi / 3) + 1`.
    fn fourier_modes(&self) -> u64 {
        (1u64 << self.lphi) / 3 + 1
    }

    /// Total degrees of freedom in one Fourier mode's 2D system.
    fn dofs_2d(&self) -> f64 {
        // 2^mx * 2^my mesh, ~9 DoF per high-order element, 8 MHD fields.
        (1u64 << self.mx) as f64 * (1u64 << self.my) as f64 * 9.0 * 8.0
    }

    /// Deterministic cost model (no noise).
    pub fn model_runtime(
        &self,
        nsup: i64,
        nrel: i64,
        nbx: i64,
        nby: i64,
        npz: i64,
    ) -> Result<f64, EvalFailure> {
        let mach = &self.machine;
        let ranks = mach.total_cores() as f64; // one rank per core
        let nz_layers = (1i64 << npz) as f64;
        if nz_layers > ranks {
            return Err(EvalFailure::InvalidConfig(format!(
                "2^{npz} z-layers exceed {ranks} ranks"
            )));
        }
        let n2d = self.dofs_2d();
        let modes = self.fourier_modes() as f64;
        let n_total = n2d * modes;

        // --- Memory check: the 3D SuperLU algorithm replicates ancestor
        // factors on every z-layer, so per-rank memory grows linearly with
        // the layer count. Fill ~ n^1.45 (2D nested-dissection regime).
        let fill_elems = 110.0 * n2d.powf(1.45);
        let bytes_per_rank = (fill_elems * 16.0 * nz_layers) / ranks + (n_total / ranks) * 200.0;
        let bytes_avail_per_rank = mach.mem_gb * 1e9 / mach.cores_per_node as f64;
        let mem_ratio = bytes_per_rank / bytes_avail_per_rank;
        if mem_ratio > 1.0 {
            return Err(EvalFailure::OutOfMemory);
        }
        // Approaching the memory ceiling degrades performance well before
        // the hard OOM (page-cache starvation, allocator fragmentation) —
        // this is what lets transfer learning *learn to avoid* the
        // failure region from source tasks that never actually failed.
        let mem_pressure = 1.0 + 6.0 * (mem_ratio - 0.5).max(0.0);

        let rate = mach.gflops_per_core * 1e9;
        let bw_per_rank = mach.mem_bw_gbs * 1e9 / mach.cores_per_node as f64;

        // --- Assembly: cache-blocked FEM integration. Optimal blocking
        // follows the mesh aspect; wrong blocking wastes bandwidth.
        let t_assembly = {
            let bx = (1i64 << nbx) as f64;
            let by = (1i64 << nby) as f64;
            // Preferred blocking grows with the mesh dimension.
            let want_x = if self.mx >= 6 { 4.0 } else { 2.0 };
            let want_y = if self.my >= 8 { 4.0 } else { 2.0 };
            let miss = 1.0 + 0.35 * ((bx / want_x).ln().powi(2) + (by / want_y).ln().powi(2));
            let flops = n_total * 250.0;
            flops * miss / (ranks * rate * 0.35)
        };

        // --- SuperLU 3D factorization of the Jacobi blocks (once per step).
        let t_factor = {
            // Supernodal LU work grows superlinearly with fill.
            let factor_flops = 1.2 * fill_elems.powf(1.3) * modes;
            // Supernode efficiency: interior optimum near 128 (arch-dependent:
            // KNL's weaker cores prefer larger supernodes to amortize).
            let nsup_opt = match mach.arch {
                crate::machine::NodeArch::Haswell => 110.0,
                crate::machine::NodeArch::Knl => 180.0,
            };
            let e_sup = 1.0 / (1.0 + 1.6 * ((nsup as f64) / nsup_opt).ln().powi(2));
            // Relaxed supernodes: mild optimum near 20.
            let e_rel = 1.0 / (1.0 + 0.03 * ((nrel as f64) / 20.0).ln().powi(2));
            let t_flops = factor_flops / (ranks * rate * 0.28 * e_sup * e_rel);
            // The point of the 3D algorithm: per-layer grids shrink the 2D
            // panel-broadcast collectives, so communication falls with the
            // layer count...
            let ranks_2d = (ranks / nz_layers).max(1.0);
            let bw_net = mach.net_bw_gbs * 1e9 / 8.0;
            let comm_2d = (fill_elems * 15.0 / (ranks * bw_net)) * (ranks_2d.log2().max(0.0) + 1.0);
            // ...while cross-layer ancestor reductions grow superlinearly
            // with the layer count.
            let comm_3d =
                nz_layers.log2().max(0.0).powf(1.5) * (fill_elems * 5.0 / (ranks * bw_net) + 5e-3);
            t_flops + comm_2d + comm_3d
        };

        // --- GMRES iterations: SpMV + triangular solves, bandwidth-bound.
        let t_gmres = {
            let iters = 10.0;
            let nnz = n_total * 45.0;
            let t_spmv = nnz * 12.0 / (ranks * bw_per_rank);
            let t_trisolve = 2.0 * fill_elems * 16.0 / (ranks * bw_per_rank)
                // Triangular solves parallelize poorly across z-layers.
                * (1.0 + 0.01 * nz_layers.log2().max(0.0));
            let t_dots = (ranks.log2()) * mach.net_latency_us * 1e-6 * 3.0;
            iters * (t_spmv + t_trisolve + t_dots)
        };

        Ok(self.steps as f64 * (t_assembly + t_factor + t_gmres) * mem_pressure)
    }
}

impl Application for Nimrod {
    fn name(&self) -> &str {
        "NIMROD"
    }

    fn tuning_space(&self) -> Space {
        Space::new(vec![
            Param::integer("NSUP", 30, 300),
            Param::integer("NREL", 10, 40),
            Param::integer("nbx", 1, 3),
            Param::integer("nby", 1, 3),
            Param::integer("npz", 0, 5),
        ])
        .expect("static space")
    }

    fn task_parameters(&self) -> ParamMap {
        let mut t = ParamMap::new();
        t.insert("mx".into(), crowdtune_db::Scalar::Int(self.mx as i64));
        t.insert("my".into(), crowdtune_db::Scalar::Int(self.my as i64));
        t.insert("lphi".into(), crowdtune_db::Scalar::Int(self.lphi as i64));
        t
    }

    fn evaluate(&self, x: &[Value], rng: &mut dyn RngCore) -> Result<f64, EvalFailure> {
        let nsup = int_param(x, 0, "NSUP");
        let nrel = int_param(x, 1, "NREL");
        let nbx = int_param(x, 2, "nbx");
        let nby = int_param(x, 3, "nby");
        let npz = int_param(x, 4, "npz");
        let t = self.model_runtime(nsup, nrel, nbx, nby, npz)?;
        Ok(t * timing_noise(rng, self.noise_sigma))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn source_task() -> Nimrod {
        // The paper's source: {mx:5, my:7, lphi:1} on 32 Haswell nodes.
        Nimrod::new(5, 7, 1, MachineModel::cori_haswell(32))
    }

    fn big_task() -> Nimrod {
        // The paper's Fig 5(c) target: {mx:6, my:8, lphi:1} on 64 Haswell.
        Nimrod::new(6, 8, 1, MachineModel::cori_haswell(64))
    }

    #[test]
    fn fourier_mode_formula() {
        assert_eq!(
            Nimrod::new(5, 7, 1, MachineModel::cori_haswell(1)).fourier_modes(),
            1
        );
        assert_eq!(
            Nimrod::new(5, 7, 3, MachineModel::cori_haswell(1)).fourier_modes(),
            3
        );
        assert_eq!(
            Nimrod::new(5, 7, 4, MachineModel::cori_haswell(1)).fourier_modes(),
            6
        );
    }

    #[test]
    fn nsup_has_interior_optimum() {
        let a = source_task();
        let t = |nsup: i64| a.model_runtime(nsup, 20, 1, 2, 1).unwrap();
        let best = (30..300).step_by(10).map(t).fold(f64::INFINITY, f64::min);
        assert!(best < t(30), "NSUP=30 should be slow");
        assert!(best < t(290), "NSUP=290 should be slow");
    }

    #[test]
    fn npz_trades_comm_for_memory() {
        let a = source_task();
        // On the small task all npz values fit in memory...
        let times: Vec<f64> = (0..5)
            .map(|z| a.model_runtime(110, 20, 1, 2, z).unwrap())
            .collect();
        // ...and some interior npz beats npz=0 (the 3D algorithm helps).
        let best = times.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(best < times[0], "3D layers should help: {times:?}");
    }

    #[test]
    fn big_task_ooms_at_high_npz() {
        let a = big_task();
        assert!(a.model_runtime(110, 20, 2, 2, 0).is_ok());
        let fails = (0..5)
            .filter(|&z| {
                matches!(
                    a.model_runtime(110, 20, 2, 2, z),
                    Err(EvalFailure::OutOfMemory)
                )
            })
            .count();
        assert!(fails >= 1, "large task must OOM for large npz");
        // And the failure region is at the top of the npz range.
        assert!(matches!(
            a.model_runtime(110, 20, 2, 2, 4),
            Err(EvalFailure::OutOfMemory)
        ));
    }

    #[test]
    fn small_task_never_ooms() {
        let a = Nimrod::new(5, 4, 1, MachineModel::cori_knl(32));
        for z in 0..5 {
            assert!(
                a.model_runtime(110, 20, 1, 1, z).is_ok(),
                "npz={z} should fit"
            );
        }
    }

    #[test]
    fn architectures_shift_the_optimum() {
        let hsw = Nimrod::new(5, 7, 1, MachineModel::cori_haswell(32));
        let knl = Nimrod::new(5, 7, 1, MachineModel::cori_knl(32));
        let best_nsup = |a: &Nimrod| {
            (30..300)
                .step_by(5)
                .min_by(|&x, &y| {
                    a.model_runtime(x, 20, 1, 2, 1)
                        .unwrap()
                        .partial_cmp(&a.model_runtime(y, 20, 1, 2, 1).unwrap())
                        .unwrap()
                })
                .unwrap()
        };
        let bh = best_nsup(&hsw);
        let bk = best_nsup(&knl);
        assert!(bk > bh, "KNL should prefer larger supernodes: {bk} vs {bh}");
    }

    #[test]
    fn node_count_scaling() {
        let n32 = Nimrod::new(5, 7, 1, MachineModel::cori_haswell(32));
        let n64 = Nimrod::new(5, 7, 1, MachineModel::cori_haswell(64));
        let t32 = n32.model_runtime(110, 20, 1, 2, 1).unwrap();
        let t64 = n64.model_runtime(110, 20, 1, 2, 1).unwrap();
        assert!(t64 < t32, "more nodes must help: {t64} vs {t32}");
    }

    #[test]
    fn cross_task_correlation_supports_transfer() {
        // Source {5,7} on 32 nodes vs target {6,8} on 64 nodes: log-runtimes
        // over the feasible config grid must correlate strongly.
        let src = source_task();
        let tgt = big_task();
        let mut ys = Vec::new();
        let mut yt = Vec::new();
        for nsup in [40i64, 80, 120, 200, 280] {
            for nbx in [1i64, 2] {
                for npz in [0i64, 1, 2] {
                    if let (Ok(a), Ok(b)) = (
                        src.model_runtime(nsup, 20, nbx, 2, npz),
                        tgt.model_runtime(nsup, 20, nbx, 2, npz),
                    ) {
                        ys.push(a.ln());
                        yt.push(b.ln());
                    }
                }
            }
        }
        assert!(ys.len() >= 20);
        let n = ys.len() as f64;
        let ma = ys.iter().sum::<f64>() / n;
        let mb = yt.iter().sum::<f64>() / n;
        let cov: f64 = ys.iter().zip(&yt).map(|(x, y)| (x - ma) * (y - mb)).sum();
        let va: f64 = ys.iter().map(|x| (x - ma) * (x - ma)).sum();
        let vb: f64 = yt.iter().map(|y| (y - mb) * (y - mb)).sum();
        let corr = cov / (va * vb).sqrt();
        assert!(corr > 0.8, "correlation = {corr}");
    }

    #[test]
    fn runtime_scale_plausible() {
        // Tens to hundreds of seconds for 30 steps, per the paper's scale.
        let t = source_task().model_runtime(110, 20, 1, 2, 1).unwrap();
        assert!(t > 1.0 && t < 2000.0, "t = {t}");
    }
}
