//! Bit-identity of the allocation-free [`Mlp`] pass path
//! (`forward_pass` / `backward_pass` / `input_grad_pass`) against the
//! allocating `forward` / `backward` reference, over random layer sizes and
//! every output activation.

use ie_nn::{Mlp, MlpPass, OutputActivation};
use ie_tensor::Tensor;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const ACTIVATIONS: [OutputActivation; 3] =
    [OutputActivation::Linear, OutputActivation::Sigmoid, OutputActivation::Tanh];

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn gradient_bits(mlp: &Mlp) -> Vec<u32> {
    mlp.layers()
        .iter()
        .flat_map(|l| l.grad_weight().as_slice().iter().chain(l.grad_bias().as_slice()))
        .map(|v| v.to_bits())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Over several accumulated samples, the pass path's outputs, input
    /// gradients (from both `backward_pass` and `input_grad_pass`) and
    /// accumulated parameter gradients equal the allocating path's bit for
    /// bit.
    #[test]
    fn pass_path_is_bit_identical_to_the_allocating_path(
        seed in 0u64..1_000,
        sizes in proptest::collection::vec(1usize..24, 2..6),
        activation in 0usize..3,
        samples in 1usize..5,
        scale in 0.1f32..6.0,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut reference = Mlp::new(&mut rng, &sizes, ACTIVATIONS[activation]);
        let mut fast = reference.clone();
        let mut pass = MlpPass::default();
        let (inputs, outputs) = (sizes[0], sizes[sizes.len() - 1]);
        let mut dx_grad = vec![0.0; inputs];
        let mut dx_input = vec![0.0; inputs];
        for s in 0..samples {
            let x = Tensor::randn(&mut rng, &[inputs], 0.0, scale);
            let go = Tensor::randn(&mut rng, &[outputs], 0.0, 1.0);

            let want_y = reference.forward(&x).unwrap();
            let want_dx = reference.backward(&x, &go).unwrap();

            let y = fast.forward_pass(x.as_slice(), &mut pass).unwrap();
            prop_assert_eq!(bits(y), bits(want_y.as_slice()), "output of sample {}", s);
            fast.input_grad_pass(&mut pass, go.as_slice(), &mut dx_input).unwrap();
            prop_assert_eq!(bits(&dx_input), bits(want_dx.as_slice()), "input_grad_pass dx {}", s);
            // Alternate the dx-skipping form: parameter gradients must not care.
            let dx = (s % 2 == 0).then_some(dx_grad.as_mut_slice());
            let wrote_dx = dx.is_some();
            fast.backward_pass(&mut pass, go.as_slice(), dx).unwrap();
            if wrote_dx {
                prop_assert_eq!(bits(&dx_grad), bits(want_dx.as_slice()), "backward_pass dx {}", s);
            }
        }
        prop_assert_eq!(gradient_bits(&fast), gradient_bits(&reference));
    }
}

#[test]
fn pass_methods_reject_mismatched_buffers() {
    let mut rng = StdRng::seed_from_u64(1);
    let mut mlp = Mlp::new(&mut rng, &[3, 5, 2], OutputActivation::Tanh);
    let mut pass = MlpPass::default();
    assert!(mlp.forward_pass(&[0.0; 4], &mut pass).is_err(), "wrong input width");
    mlp.forward_pass(&[0.1, 0.2, 0.3], &mut pass).unwrap();
    assert!(mlp.backward_pass(&mut pass, &[1.0], None).is_err(), "wrong grad width");
    assert!(mlp.backward_pass(&mut pass, &[1.0, 1.0], Some(&mut [0.0; 2])).is_err());
    assert!(mlp.input_grad_pass(&mut pass, &[1.0, 1.0], &mut [0.0; 4]).is_err());
    let foreign_mlp = Mlp::new(&mut rng, &[4, 2], OutputActivation::Linear);
    let mut foreign = MlpPass::default();
    foreign_mlp.forward_pass(&[0.0; 4], &mut foreign).unwrap();
    assert!(mlp.input_grad_pass(&mut foreign, &[1.0, 1.0], &mut [0.0; 3]).is_err());
    assert!(mlp.backward_pass(&mut MlpPass::default(), &[1.0, 1.0], None).is_err());
}
