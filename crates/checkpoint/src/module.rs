//! Save/load for trainable modules through their `visit_params` slot
//! ordering.
//!
//! Every trainable thing in the workspace — `neural` layers and stacks,
//! the three OVS modules, the baseline nets — exposes its parameters
//! through a `visit_params(&mut FnMut(&mut Matrix, &mut Matrix))` walk
//! with a **deterministic slot order**. These functions take that walk as
//! a [`ParamVisitor`], `&mut |f| module.visit_params(f)`, exactly as the
//! optimiser does. The slot order is the checkpoint schema: exporting
//! clones the parameter matrices slot by slot, and importing validates
//! every slot's shape against the artifact before a single value is
//! written, so a failed load never leaves a model half-overwritten.

use crate::{CheckpointError, Result};
use neural::layers::ParamVisitor;
use neural::Matrix;

/// Clones every parameter matrix a visitor exposes, in slot order.
pub fn export_visit(visit: &mut ParamVisitor<'_>) -> Vec<Matrix> {
    let mut out = Vec::new();
    visit(&mut |p, _| out.push(p.clone()));
    out
}

/// The `(rows, cols)` of every parameter slot, in slot order — the shape
/// signature a loader checks before touching the model.
pub fn signature_visit(visit: &mut ParamVisitor<'_>) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    visit(&mut |p, _| out.push(p.shape()));
    out
}

/// Copies `weights` into the visitor's parameter slots. Validates the
/// slot count and every shape first; on any mismatch the model is left
/// untouched and a typed error is returned.
pub fn import_visit(visit: &mut ParamVisitor<'_>, weights: &[Matrix]) -> Result<()> {
    let sig = signature_visit(visit);
    check_signature(&sig, weights)?;
    let mut idx = 0usize;
    visit(&mut |p, _| {
        p.as_mut_slice().copy_from_slice(weights[idx].as_slice());
        idx += 1;
    });
    Ok(())
}

/// Validates `weights` against a shape signature without writing anything.
pub fn check_signature(sig: &[(usize, usize)], weights: &[Matrix]) -> Result<()> {
    if sig.len() != weights.len() {
        return Err(CheckpointError::ShapeMismatch {
            expected: format!("{} parameter slots", sig.len()),
            actual: format!("{} matrices", weights.len()),
        });
    }
    for (i, (shape, w)) in sig.iter().zip(weights).enumerate() {
        if *shape != w.shape() {
            return Err(CheckpointError::ShapeMismatch {
                expected: format!("slot {i} of shape {shape:?}"),
                actual: format!("{:?}", w.shape()),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use neural::layers::{ActKind, Activation, Dense, Layer, Lstm, SeqLayer, Sequential};
    use neural::rng::Rng64;

    fn stack(seed: u64) -> Sequential {
        let mut rng = Rng64::new(seed);
        Sequential::new(vec![
            Box::new(Dense::new(3, 4, &mut rng)),
            Box::new(Activation::new(ActKind::Tanh)),
            Box::new(Dense::new(4, 2, &mut rng)),
        ])
    }

    fn export(net: &mut Sequential) -> Vec<Matrix> {
        export_visit(&mut |f| net.visit_params(f))
    }

    fn import(net: &mut Sequential, weights: &[Matrix]) -> Result<()> {
        import_visit(&mut |f| net.visit_params(f), weights)
    }

    #[test]
    fn export_import_round_trip() {
        let mut a = stack(1);
        let mut b = stack(2);
        let wa = export(&mut a);
        assert_eq!(wa.len(), 4); // W1 b1 W2 b2
        import(&mut b, &wa).unwrap();
        assert_eq!(export(&mut b), wa);
    }

    #[test]
    fn mismatched_import_leaves_model_untouched() {
        let mut a = stack(1);
        let before = export(&mut a);
        // Wrong count.
        assert!(import(&mut a, &before[..2]).is_err());
        // Wrong shape in a later slot: nothing before it may be written.
        let mut wrong = before.clone();
        wrong[3] = Matrix::zeros(9, 9);
        assert!(matches!(
            import(&mut a, &wrong),
            Err(CheckpointError::ShapeMismatch { .. })
        ));
        assert_eq!(export(&mut a), before);
    }

    #[test]
    fn seq_layers_round_trip_through_the_same_functions() {
        let mut a = Lstm::new(2, 3, &mut Rng64::new(4));
        let mut b = Lstm::new(2, 3, &mut Rng64::new(5));
        let wa = export_visit(&mut |f| a.visit_params(f));
        assert_ne!(export_visit(&mut |f| b.visit_params(f)), wa);
        import_visit(&mut |f| b.visit_params(f), &wa).unwrap();
        assert_eq!(export_visit(&mut |f| b.visit_params(f)), wa);
    }

    #[test]
    fn one_walk_may_span_several_modules() {
        // Composite modules (an OVS stage, a baseline net) chain their
        // parts' walks; the chained order is the schema.
        let mut dense = stack(6);
        let mut lstm = Lstm::new(2, 2, &mut Rng64::new(6));
        let mut both = |f: &mut dyn FnMut(&mut Matrix, &mut Matrix)| {
            dense.visit_params(f);
            lstm.visit_params(f);
        };
        let ws = export_visit(&mut both);
        let sig = signature_visit(&mut both);
        assert_eq!(ws.iter().map(Matrix::shape).collect::<Vec<_>>(), sig);
        // The dense stack's four slots come first, then the LSTM's.
        assert!(sig.len() > 4);
        assert_eq!(sig[..4], [(3, 4), (1, 4), (4, 2), (1, 2)]);
        // The parts' own walks, swapped, are a different schema.
        let mut swapped = ws.clone();
        swapped.rotate_left(4);
        assert!(import_visit(&mut both, &swapped).is_err());
        assert!(import_visit(&mut both, &ws).is_ok());
    }

    #[test]
    fn parameter_free_modules_have_an_empty_schema() {
        let mut act = Activation::new(ActKind::Tanh);
        assert!(export_visit(&mut |f| act.visit_params(f)).is_empty());
        assert!(import_visit(&mut |f| act.visit_params(f), &[]).is_ok());
        let err = import_visit(&mut |f| act.visit_params(f), &[Matrix::zeros(1, 1)]);
        assert!(matches!(err, Err(CheckpointError::ShapeMismatch { .. })));
    }

    #[test]
    fn check_signature_names_the_first_mismatched_slot() {
        let sig = [(2, 2), (1, 2), (2, 1)];
        let ws = [
            Matrix::zeros(2, 2),
            Matrix::zeros(2, 1),
            Matrix::zeros(1, 2),
        ];
        let Err(CheckpointError::ShapeMismatch { expected, actual }) = check_signature(&sig, &ws)
        else {
            panic!("a transposed slot must be refused");
        };
        assert_eq!(expected, "slot 1 of shape (1, 2)");
        assert_eq!(actual, "(2, 1)");
    }

    #[test]
    fn signature_matches_export() {
        let mut a = stack(3);
        let sig = signature_visit(&mut |f| a.visit_params(f));
        let ws = export(&mut a);
        assert_eq!(sig, ws.iter().map(|w| w.shape()).collect::<Vec<_>>());
        assert!(check_signature(&sig, &ws).is_ok());
    }
}
