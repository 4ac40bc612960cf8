//! The program sets the workloads run, built through `tilefuse_workloads`.

use tilefuse_core::Options;
use tilefuse_pir::Program;
use tilefuse_scheduler::FusionHeuristic;
use tilefuse_workloads::{equake, polybench, polymage, resnet, Workload};

/// A program plus the optimizer options it is compiled with.
pub struct Item {
    /// Stable label used in metric names and the digest file.
    pub label: String,
    /// Group label: the PolyMage program name, or `resnet` / `equake` /
    /// `polybench`.
    pub group: &'static str,
    pub program: Program,
    pub opts: Options,
}

/// Options the paper's compile tables use: the workload's own tiles, a
/// one-level CPU parallelism cap and the `minfuse` start-up heuristic.
fn compile_opts(w: &Workload) -> Options {
    Options {
        tile_sizes: w.tile_sizes.clone(),
        parallel_cap: Some(1),
        startup: FusionHeuristic::MinFuse,
        ..Options::default()
    }
}

fn item(w: Workload, label: String, group: &'static str, opts: Options) -> Item {
    Item {
        label,
        group,
        program: w.program,
        opts,
    }
}

/// The 28 programs the paper's tables compile: the six PolyMage pipelines
/// at 2048², 2mm, gemver and covariance at their Table II sizes, the 13
/// ResNet-50 conv+bn blocks, and equake at its three sizes, original and
/// permuted. Built fresh on every call, so no per-program memo survives.
pub fn compile_set() -> Result<Vec<Item>, String> {
    let e = |e: tilefuse_pir::Error| e.to_string();
    let mut out = Vec::new();
    for w in polymage::all(2048, 2048).map_err(e)? {
        let group = polymage_group(w.program.name());
        let opts = compile_opts(&w);
        out.push(item(w, group.to_string(), group, opts));
    }
    for w in [
        polybench::two_mm(1024).map_err(e)?,
        polybench::gemver(4096).map_err(e)?,
        polybench::covariance(1024, 1024).map_err(e)?,
    ] {
        let opts = compile_opts(&w);
        let label = w.name.to_string();
        out.push(item(w, label, "polybench", opts));
    }
    for (i, b) in resnet::blocks().iter().enumerate() {
        let w = resnet::conv_bn_program(b).map_err(e)?;
        let opts = compile_opts(&w);
        out.push(item(w, format!("resnet{i}"), "resnet", opts));
    }
    for (size, name) in equake::EquakeSize::all() {
        for permuted in [false, true] {
            let w = equake::equake(size, permuted).map_err(e)?;
            let opts = compile_opts(&w);
            let label = format!("equake.{name}{}", if permuted { ".permuted" } else { "" });
            out.push(item(w, label, "equake", opts));
        }
    }
    Ok(out)
}

/// The PolyMage program names, as `Program::name` spells them.
pub const POLYMAGE: [&str; 6] = [
    "bilateral_grid",
    "camera_pipeline",
    "harris",
    "local_laplacian",
    "multiscale_interp",
    "unsharp_mask",
];

fn polymage_group(name: &str) -> &'static str {
    POLYMAGE
        .into_iter()
        .find(|p| *p == name)
        .unwrap_or("polymage")
}

/// One executed program: which pipeline, image side and square tile.
#[derive(Clone, Copy)]
pub struct ExecSpec {
    pub name: &'static str,
    pub img: i64,
    pub tile: i64,
    /// Whether the traced run also times the tile-DAG runtime. It is off
    /// where that runtime takes minutes (see README.md).
    pub dag: bool,
}

/// The programs of one exec workload and the fewest timed rounds a run
/// makes, however short its window.
pub struct ExecSet {
    pub specs: &'static [ExecSpec],
    pub min_rounds: u64,
}

/// The exec halves of the `camera` and `harris` workloads: working sets
/// of a few KB, where VM time is per-instance control overhead. 16²
/// rather than the 32² of `experiments --backend vm`: the per-instance
/// cost is the same, and a run affords several rounds instead of one (see
/// README.md).
pub const CAMERA: ExecSet = ExecSet {
    specs: &[ExecSpec {
        name: "camera_pipeline",
        img: 16,
        tile: 4,
        dag: true,
    }],
    min_rounds: 3,
};

pub const HARRIS: ExecSet = ExecSet {
    specs: &[ExecSpec {
        name: "harris",
        img: 16,
        tile: 4,
        dag: true,
    }],
    min_rounds: 3,
};

/// `exec-large`: hundreds of thousands to millions of instances and
/// working sets above L2. 512² is the smallest power of two at which the
/// two pyramids' live-outs are non-empty.
pub const EXEC_LARGE: ExecSet = ExecSet {
    specs: &[
        ExecSpec {
            name: "unsharp_mask",
            img: 256,
            tile: 32,
            dag: false,
        },
        ExecSpec {
            name: "multiscale_interp",
            img: 512,
            tile: 32,
            dag: false,
        },
        ExecSpec {
            name: "local_laplacian",
            img: 512,
            tile: 32,
            dag: false,
        },
    ],
    min_rounds: 2,
};

/// Builds one executed program with CPU options at its square tile.
pub fn exec_item(s: &ExecSpec) -> Result<Item, String> {
    let (h, w) = (s.img, s.img);
    let built = match s.name {
        "bilateral_grid" => polymage::bilateral_grid(h, w),
        "camera_pipeline" => polymage::camera_pipeline(h, w),
        "harris" => polymage::harris(h, w),
        "local_laplacian" => polymage::local_laplacian(h, w),
        "multiscale_interp" => polymage::multiscale_interpolation(h, w),
        "unsharp_mask" => polymage::unsharp_mask(h, w),
        other => return Err(format!("unknown exec program {other}")),
    }
    .map_err(|e| e.to_string())?;
    Ok(Item {
        label: s.name.to_string(),
        group: polymage_group(s.name),
        program: built.program,
        opts: Options::cpu(&[s.tile, s.tile]),
    })
}

/// Total bytes of every array of `program` at its default parameters,
/// and the bytes of its largest array.
pub fn working_set(program: &Program) -> (u64, u64) {
    let values = program.param_values(&[]);
    let bind = |name: &str| {
        program
            .params()
            .iter()
            .position(|(n, _)| n == name)
            .map_or(0, |i| values[i])
    };
    let sizes: Vec<u64> = program
        .arrays()
        .iter()
        .map(|a| {
            a.shape(&bind)
                .iter()
                .map(|&d| d.max(0) as u64)
                .product::<u64>()
                * 8
        })
        .collect();
    (sizes.iter().sum(), sizes.iter().copied().max().unwrap_or(0))
}
