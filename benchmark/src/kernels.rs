//! Per-layer kernel timings behind `serve_lenet` (and, through the shared
//! GEMM, `train_lenet`): the batched forward pass per exit, and the
//! `ie_tensor` kernels at LeNet's own layer shapes — the GEMM of every
//! convolution, the batched matrix-vector product of every dense layer (what
//! the batch plan runs for them), and im2col on every convolution. MACs and
//! bytes are computed from the layer specs, not measured.

use crate::report::Report;
use crate::stats::median;
use crate::trace::Tracer;
use crate::BenchResult;
use ie_nn::spec::{LayerSpec, LayerSpecKind};
use ie_nn::MultiExitNetwork;
use ie_tensor::{gemm_into, im2col_into, matvec_batch_into, Conv2dGeometry, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Batch sizes the forward pass and the GEMMs are timed at: a lone request
/// and a full serving window.
const BATCHES: [usize; 2] = [1, 8];
/// Timed chunks per kernel; each chunk runs enough calls to last about
/// `CHUNK_S`, and the median chunk gives the per-call time.
const CHUNKS: usize = 15;
const CHUNK_S: f64 = 2e-4;

/// Times `f` in chunks under one span name each and returns the median
/// seconds per call.
fn per_call(tr: &mut Tracer, name: &str, mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    f();
    let once = t0.elapsed().as_secs_f64().max(1e-8);
    let calls = ((CHUNK_S / once).ceil() as usize).clamp(1, 100_000);
    let mut chunks = Vec::with_capacity(CHUNKS);
    for i in 0..CHUNKS {
        let span = tr.begin(name.to_string(), i as u64);
        let t = Instant::now();
        for _ in 0..calls {
            f();
        }
        chunks.push(t.elapsed().as_secs_f64() / calls as f64);
        tr.end(span);
    }
    median(&chunks)
}

fn parameterised_layers(net: &MultiExitNetwork) -> Vec<LayerSpec> {
    let arch = net.architecture();
    arch.all_layers().filter(|l| l.is_parameterised()).cloned().collect()
}

pub fn run(
    net: &MultiExitNetwork,
    images: &[Tensor],
    tr: &mut Tracer,
    report: &mut Report,
) -> BenchResult<()> {
    tr.set_enabled(true);
    let arch = net.architecture();
    for exit in 0..net.num_exits() {
        report.count(
            &format!("lenet.macs_to_exit{}", exit + 1),
            arch.flops_to_exit(exit),
            "computed",
        );
    }

    // The batched forward pass, per sample.
    let mut plan = net.batch_plan(*BATCHES.iter().max().expect("batches"));
    for b in BATCHES {
        let inputs: Vec<&Tensor> = images.iter().cycle().take(b).collect();
        let mut exit3 = f64::NAN;
        for exit in 0..net.num_exits() {
            let name = format!("ie_nn.forward.exit{}.b{b}", exit + 1);
            let mut result = Ok(());
            let s = per_call(tr, &name, || {
                if let Err(e) = net.forward_to_exit_batch_with(&mut plan, &inputs, exit) {
                    result = Err(e);
                }
            });
            result?;
            report.layer(
                &format!("ie_nn.forward_us.exit{}.b{b}", exit + 1),
                s / b as f64 * 1e6,
                "us",
            );
            exit3 = s / b as f64;
        }
        let macs = arch.flops_to_exit(net.num_exits() - 1) as f64;
        report.layer(&format!("ie_nn.gmacs.b{b}"), macs / exit3 / 1e9, "GMAC/s");
    }

    // GEMM at each parameterised layer's shape, and im2col at each conv.
    let mut rng = StdRng::seed_from_u64(0x6e6d);
    for layer in parameterised_layers(net) {
        for b in BATCHES {
            let (m, k, n) = match layer.kind {
                LayerSpecKind::Conv { in_channels, out_channels, kernel, .. } => (
                    out_channels,
                    in_channels * kernel * kernel,
                    b * layer.output_dims[1] * layer.output_dims[2],
                ),
                LayerSpecKind::Dense { in_features, out_features } => {
                    (out_features, in_features, b)
                }
                _ => unreachable!("only parameterised layers"),
            };
            let a: Vec<f32> = (0..m * k).map(|_| rng.gen::<f32>() - 0.5).collect();
            let x: Vec<f32> = (0..k * n).map(|_| rng.gen::<f32>() - 0.5).collect();
            let mut out = vec![0.0f32; m * n];
            let name = format!("ie_tensor.gemm.{}.b{b}", layer.name);
            // The batch plan runs convolutions as one widened GEMM and dense
            // layers through the batched matrix-vector kernel; each layer is
            // timed on the kernel that runs it.
            let dense = matches!(layer.kind, LayerSpecKind::Dense { .. });
            let s = per_call(tr, &name, || {
                if dense {
                    matvec_batch_into(std::hint::black_box(&a), &x, &mut out, m, k, b);
                } else {
                    gemm_into(std::hint::black_box(&a), &x, &mut out, m, k, n);
                }
                std::hint::black_box(&mut out);
            });
            report.layer(
                &format!("ie_tensor.gemm_gmacs.{}.b{b}", layer.name),
                (m * k * n) as f64 / s / 1e9,
                "GMAC/s",
            );
        }
        if let LayerSpecKind::Conv { in_channels, kernel, stride, padding, .. } = layer.kind {
            let geom = Conv2dGeometry {
                in_channels,
                in_h: layer.input_dims[1],
                in_w: layer.input_dims[2],
                kernel,
                stride,
                padding,
            };
            let input: Vec<f32> =
                (0..in_channels * geom.in_h * geom.in_w).map(|_| rng.gen::<f32>()).collect();
            let mut cols = vec![0.0f32; geom.col_len()];
            let bytes = ((input.len() + cols.len()) * std::mem::size_of::<f32>()) as u64;
            report.count(&format!("lenet.im2col_bytes.{}", layer.name), bytes, "computed");
            let name = format!("ie_tensor.im2col.{}", layer.name);
            let mut result = Ok(());
            let s = per_call(tr, &name, || {
                if let Err(e) = im2col_into(std::hint::black_box(&input), &geom, &mut cols) {
                    result = Err(e);
                }
                std::hint::black_box(&mut cols);
            });
            result?;
            report.layer(
                &format!("ie_tensor.im2col_gbps.{}", layer.name),
                bytes as f64 / s / 1e9,
                "GB/s",
            );
        }
    }
    tr.set_enabled(false);
    Ok(())
}
