//! The two instantiations of the duet driver (`side.rs`): `product` over
//! `../crates/*`, `reference` over the frozen copy in `reference/crates/*`.

macro_rules! side {
    ($(#[$doc:meta])* $name:ident: $core:ident $data:ident $linalg:ident $losses:ident
     $models:ident $serve:ident) => {
        $(#[$doc])*
        pub mod $name {
            use ::$core as k_core;
            use ::$data as k_data;
            use ::$linalg as k_linalg;
            use ::$losses as k_losses;
            use ::$models as k_models;
            use ::$serve as k_serve;
            include!("side.rs");
        }
    };
}

side!(
    /// The code under test.
    product: bsl_core bsl_data bsl_linalg bsl_losses bsl_models bsl_serve
);
side!(
    /// The frozen copy every timing is divided by; also the oracle.
    reference: ref_core ref_data ref_linalg ref_losses ref_models ref_serve
);
