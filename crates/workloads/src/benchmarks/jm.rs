//! JM — triangle-triangle intersection (AxBench `jmeint`).
//!
//! Boolean output, miss-rate metric, 6 approximable regions: the six
//! vertex-coordinate arrays (Table III: #AR = 6); the decision output is
//! exact. The kernel is Möller's interval-based triangle-triangle overlap
//! test; a flipped decision under approximation is exactly the "boolean
//! that may flip" the paper blames for JM's comparatively high error.

use super::{zip_sweep, ArraySpec};
use crate::gen;
use crate::metrics::ErrorMetric;
use crate::suite::{Scale, Workload};
use rand::Rng;
use slc_sim::trace::TraceBuilder;
use slc_sim::{DevicePtr, GpuMemory, Trace};

/// The triangle-intersection benchmark.
#[derive(Debug, Clone)]
pub struct Jm {
    pairs: usize,
}

impl Jm {
    /// Creates the benchmark at `scale` (paper: 400 K triangle pairs).
    pub fn new(scale: Scale) -> Self {
        Self { pairs: scale.pick(4 << 10, 128 << 10, 400_000) }
    }

    /// Six coordinate arrays (3 f32 each per pair) + the output flags.
    fn ptrs(&self) -> ([DevicePtr; 6], DevicePtr) {
        let n = self.pairs as u64 * 12;
        let coords = [
            DevicePtr(0),
            DevicePtr(n),
            DevicePtr(2 * n),
            DevicePtr(3 * n),
            DevicePtr(4 * n),
            DevicePtr(5 * n),
        ];
        (coords, DevicePtr(6 * n))
    }
}

type V3 = [f32; 3];

fn sub(a: V3, b: V3) -> V3 {
    [a[0] - b[0], a[1] - b[1], a[2] - b[2]]
}

fn cross(a: V3, b: V3) -> V3 {
    [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]]
}

fn dot(a: V3, b: V3) -> f32 {
    a[0] * b[0] + a[1] * b[1] + a[2] * b[2]
}

/// Interval of triangle (vp, dv) along the intersection line, where the
/// vertex `lone` lies alone on its side of the other triangle's plane.
fn interval(vp: V3, dv: V3, lone: usize) -> (f32, f32) {
    let (a, b, c) = match lone {
        0 => (0, 1, 2),
        1 => (1, 0, 2),
        _ => (2, 0, 1),
    };
    let t0 = vp[a] + (vp[b] - vp[a]) * dv[a] / (dv[a] - dv[b]);
    let t1 = vp[a] + (vp[c] - vp[a]) * dv[a] / (dv[a] - dv[c]);
    (t0.min(t1), t0.max(t1))
}

/// Index of the vertex alone on its side (signs must straddle).
fn lone_vertex(dv: V3) -> usize {
    let s = [dv[0] >= 0.0, dv[1] >= 0.0, dv[2] >= 0.0];
    if s[0] == s[1] {
        2
    } else if s[0] == s[2] {
        1
    } else {
        0
    }
}

/// 2-D point-in-triangle (for the rare coplanar case).
fn point_in_tri_2d(p: [f32; 2], a: [f32; 2], b: [f32; 2], c: [f32; 2]) -> bool {
    let sign = |p1: [f32; 2], p2: [f32; 2], p3: [f32; 2]| {
        (p1[0] - p3[0]) * (p2[1] - p3[1]) - (p2[0] - p3[0]) * (p1[1] - p3[1])
    };
    let d1 = sign(p, a, b);
    let d2 = sign(p, b, c);
    let d3 = sign(p, c, a);
    let has_neg = d1 < 0.0 || d2 < 0.0 || d3 < 0.0;
    let has_pos = d1 > 0.0 || d2 > 0.0 || d3 > 0.0;
    !(has_neg && has_pos)
}

fn segments_intersect_2d(p1: [f32; 2], p2: [f32; 2], q1: [f32; 2], q2: [f32; 2]) -> bool {
    let orient = |a: [f32; 2], b: [f32; 2], c: [f32; 2]| {
        (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    };
    let d1 = orient(q1, q2, p1);
    let d2 = orient(q1, q2, p2);
    let d3 = orient(p1, p2, q1);
    let d4 = orient(p1, p2, q2);
    (d1 * d2 < 0.0) && (d3 * d4 < 0.0)
}

fn coplanar_tri_tri(n: V3, t1: [V3; 3], t2: [V3; 3]) -> bool {
    // Project onto the dominant-axis plane.
    let ax = n[0].abs();
    let ay = n[1].abs();
    let az = n[2].abs();
    let proj = |v: V3| -> [f32; 2] {
        if ax >= ay && ax >= az {
            [v[1], v[2]]
        } else if ay >= ax && ay >= az {
            [v[0], v[2]]
        } else {
            [v[0], v[1]]
        }
    };
    let a = t1.map(proj);
    let b = t2.map(proj);
    for i in 0..3 {
        for j in 0..3 {
            if segments_intersect_2d(a[i], a[(i + 1) % 3], b[j], b[(j + 1) % 3]) {
                return true;
            }
        }
    }
    point_in_tri_2d(a[0], b[0], b[1], b[2]) || point_in_tri_2d(b[0], a[0], a[1], a[2])
}

/// Möller's triangle-triangle overlap test.
pub fn tri_tri_intersect(t1: [V3; 3], t2: [V3; 3]) -> bool {
    const EPS: f32 = 1e-7;
    // Plane of t2.
    let n2 = cross(sub(t2[1], t2[0]), sub(t2[2], t2[0]));
    let d2 = -dot(n2, t2[0]);
    let mut dv = [dot(n2, t1[0]) + d2, dot(n2, t1[1]) + d2, dot(n2, t1[2]) + d2];
    for d in dv.iter_mut() {
        if d.abs() < EPS {
            *d = 0.0;
        }
    }
    if (dv[0] > 0.0 && dv[1] > 0.0 && dv[2] > 0.0) || (dv[0] < 0.0 && dv[1] < 0.0 && dv[2] < 0.0) {
        return false;
    }
    // Plane of t1.
    let n1 = cross(sub(t1[1], t1[0]), sub(t1[2], t1[0]));
    let d1 = -dot(n1, t1[0]);
    let mut du = [dot(n1, t2[0]) + d1, dot(n1, t2[1]) + d1, dot(n1, t2[2]) + d1];
    for d in du.iter_mut() {
        if d.abs() < EPS {
            *d = 0.0;
        }
    }
    if (du[0] > 0.0 && du[1] > 0.0 && du[2] > 0.0) || (du[0] < 0.0 && du[1] < 0.0 && du[2] < 0.0) {
        return false;
    }
    if dv == [0.0; 3] {
        return coplanar_tri_tri(n2, t1, t2);
    }
    // Intersection line direction; project on its dominant axis.
    let dir = cross(n1, n2);
    let axis = {
        let m = [dir[0].abs(), dir[1].abs(), dir[2].abs()];
        if m[0] >= m[1] && m[0] >= m[2] {
            0
        } else if m[1] >= m[2] {
            1
        } else {
            2
        }
    };
    let vp = [t1[0][axis], t1[1][axis], t1[2][axis]];
    let up = [t2[0][axis], t2[1][axis], t2[2][axis]];
    let (a0, a1) = interval(vp, dv, lone_vertex(dv));
    let (b0, b1) = interval(up, du, lone_vertex(du));
    a1 >= b0 && b1 >= a0
}

impl Workload for Jm {
    fn name(&self) -> &'static str {
        "JM"
    }

    fn description(&self) -> &'static str {
        "Intersection of triangles"
    }

    fn metric(&self) -> ErrorMetric {
        ErrorMetric::MissRate
    }

    fn approx_regions(&self) -> usize {
        6
    }

    fn input_description(&self) -> String {
        format!("{} tri. pairs", self.pairs)
    }

    fn build(&self, seed: u64) -> GpuMemory {
        let mut mem = GpuMemory::new();
        let coord_bytes = self.pairs * 12;
        let labels = ["a_v0", "a_v1", "a_v2", "b_v0", "b_v1", "b_v2"];
        let mut ptrs = Vec::new();
        for label in labels {
            ptrs.push(mem.malloc(label, coord_bytes, true));
        }
        let flags = mem.malloc("intersects", self.pairs * 4, false);
        let _ = flags;
        // Triangle pairs placed near each other so roughly a third
        // intersect: coordinates in a narrow magnitude band (clustered
        // exponents, varying mantissas).
        let mut rng = gen::rng(seed, 0);
        let mut arrays: Vec<Vec<f32>> =
            (0..6).map(|_| Vec::with_capacity(self.pairs * 3)).collect();
        for _ in 0..self.pairs {
            let base: V3 =
                [rng.gen_range(0.25..1.0), rng.gen_range(0.25..1.0), rng.gen_range(0.25..1.0)];
            let shift: V3 = [
                base[0] + rng.gen_range(-0.12f32..0.12),
                base[1] + rng.gen_range(-0.12f32..0.12),
                base[2] + rng.gen_range(-0.12f32..0.12),
            ];
            for (slot, array) in arrays.iter_mut().enumerate() {
                let center = if slot < 3 { base } else { shift };
                for &c in &center {
                    array.push(c + rng.gen_range(-0.15f32..0.15));
                }
            }
        }
        let mut qrng = gen::rng(seed, 7);
        for (ptr, data) in ptrs.iter().zip(&mut arrays) {
            // Mesh vertices come from model files with mixed precision:
            // most on a coarse grid, a fraction carrying full detail.
            gen::dither(data, 1.0 / 512.0, 1.0 / 131072.0, 0.35, &mut qrng);
            mem.write_f32(*ptr, data);
        }
        mem
    }

    fn execute(&self, mem: &mut GpuMemory, stage: &mut dyn FnMut(&mut GpuMemory)) {
        let (coords, flags) = self.ptrs();
        stage(mem);
        let (arrays, [mut out]) =
            mem.launch(coords.map(|p| (p, self.pairs * 3)), [(flags, self.pairs)]);
        for i in 0..self.pairs {
            let v = |a: usize| -> V3 {
                [arrays[a].get(3 * i), arrays[a].get(3 * i + 1), arrays[a].get(3 * i + 2)]
            };
            let t1 = [v(0), v(1), v(2)];
            let t2 = [v(3), v(4), v(5)];
            out.set(i, if tri_tri_intersect(t1, t2) { 1.0 } else { 0.0 });
        }
        stage(mem);
    }

    fn output_arrays(&self) -> Vec<(DevicePtr, usize)> {
        let (_, flags) = self.ptrs();
        vec![(flags, self.pairs)]
    }

    fn trace(&self, sms: usize) -> Trace {
        let (coords, flags) = self.ptrs();
        let mut b = TraceBuilder::new(sms);
        let inputs: Vec<ArraySpec> = coords.iter().map(|&p| ArraySpec::new(p, 12)).collect();
        let outputs = [ArraySpec::new(flags, 4)];
        zip_sweep(&mut b, self.pairs, 128, &inputs, &outputs, 4);
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T_UNIT: [V3; 3] = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]];

    #[test]
    fn piercing_triangles_intersect() {
        // A triangle crossing the unit triangle's plane through its interior.
        let t2 = [[0.2, 0.2, -0.5], [0.3, 0.2, 0.5], [0.25, 0.3, 0.5]];
        assert!(tri_tri_intersect(T_UNIT, t2));
        assert!(tri_tri_intersect(t2, T_UNIT), "test is symmetric");
    }

    #[test]
    fn distant_triangles_do_not_intersect() {
        let far = [[10.0, 10.0, 10.0], [11.0, 10.0, 10.0], [10.0, 11.0, 10.0]];
        assert!(!tri_tri_intersect(T_UNIT, far));
    }

    #[test]
    fn parallel_offset_triangles_do_not_intersect() {
        let above = [[0.0, 0.0, 1.0], [1.0, 0.0, 1.0], [0.0, 1.0, 1.0]];
        assert!(!tri_tri_intersect(T_UNIT, above));
    }

    #[test]
    fn crossing_plane_but_outside_does_not_intersect() {
        // Straddles the plane but far from the unit triangle in x.
        let t2 = [[5.0, 0.2, -0.5], [5.2, 0.2, 0.5], [5.1, 0.4, 0.5]];
        assert!(!tri_tri_intersect(T_UNIT, t2));
    }

    #[test]
    fn coplanar_overlapping_triangles_intersect() {
        let t2 = [[0.1, 0.1, 0.0], [0.9, 0.1, 0.0], [0.1, 0.9, 0.0]];
        assert!(tri_tri_intersect(T_UNIT, t2));
    }

    #[test]
    fn coplanar_disjoint_triangles_do_not_intersect() {
        let t2 = [[5.0, 5.0, 0.0], [6.0, 5.0, 0.0], [5.0, 6.0, 0.0]];
        assert!(!tri_tri_intersect(T_UNIT, t2));
    }

    #[test]
    fn pipeline_produces_mixed_decisions() {
        let jm = Jm::new(Scale::Tiny);
        let mut mem = jm.build(1);
        let mut noop = |_: &mut GpuMemory| {};
        jm.execute(&mut mem, &mut noop);
        let out = jm.output(&mem);
        let hits = out.iter().filter(|&&v| v > 0.5).count();
        let rate = hits as f64 / out.len() as f64;
        assert!((0.05..0.95).contains(&rate), "intersection rate {rate} should be non-degenerate");
    }

    #[test]
    fn six_coordinate_regions_are_approximable() {
        let jm = Jm::new(Scale::Tiny);
        let mem = jm.build(1);
        assert_eq!(mem.approx_regions(), 6);
        // The flags output is exact.
        let (_, flags) = jm.ptrs();
        let region = mem.regions().iter().find(|r| r.base == flags.0).expect("a flags region");
        assert!(!region.safe_to_approx);
    }
}
