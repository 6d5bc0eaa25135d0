//! The CENT trace compiler: model mapping and instruction generation (§5).
//!
//! * [`GemvLayout`]/[`KvLayout`] — DRAM placements for all-bank GEMV and the
//!   attention KV caches;
//! * [`TraceBuilder`] — op-level compilation: one Figure 11 GEMV register
//!   pass ([`TraceBuilder::gemv_pass`]), chunk-accumulating GEMV, neighbour
//!   dot products, element-wise scratch products, RMSNorm choreography;
//! * [`BlockPlacement`]/[`compile_decode_step`] — a full transformer block
//!   as one CENT trace per token, with per-instruction phase tags, over one
//!   Shared Buffer region plan that [`sb_demand`] sums exactly;
//! * [`weight_image`] — parameter loading with the RMSNorm-gain and
//!   `1/sqrt(head_dim)` folds;
//! * [`SystemMapping`] — PP / TP / hybrid / DP distribution across CXL
//!   devices with the paper's placement rules.
//!
//! The RISC-V routine ids the traces name live with the ISA, in
//! `cent_isa::riscv_pc`.

#![forbid(unsafe_code)]

mod block;
mod builder;
mod image;
mod layout;
mod mapping;

pub use block::{
    compile_decode_step, max_feasible_channels, sb_demand, BlockPlacement, BlockStep,
    SEGMENT_TOKENS_MAX,
};
pub use builder::{BlockPhase, SbAllocator, TraceBuilder, VecSource};
pub use image::{weight_image, BankWrite};
pub use layout::{GemvLayout, KvLayout, RowAllocator, OUTPUTS_PER_PASS, TILE_ELEMS};
pub use mapping::{DeviceAssignment, Strategy, SystemMapping};
