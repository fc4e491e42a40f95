//! Transformer model profiles.

/// Numeric precision of weights and KV cache entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DType {
    /// 16-bit IEEE float.
    Fp16,
    /// 16-bit brain float.
    Bf16,
    /// 8-bit float (weight-only quantisation).
    Fp8,
    /// 8-bit integer.
    Int8,
}

impl DType {
    /// Bytes per element.
    pub const fn bytes(self) -> u64 {
        match self {
            DType::Fp16 | DType::Bf16 => 2,
            DType::Fp8 | DType::Int8 => 1,
        }
    }
}

/// Architecture description of a decoder-only transformer.
///
/// Only the quantities that drive memory footprint and arithmetic intensity
/// are retained; everything the scheduler or KV manager needs derives from
/// these.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelProfile {
    /// Human-readable name, e.g. `"Llama3-8B"`.
    pub name: String,
    /// Total parameter count.
    pub params: u64,
    /// Number of transformer layers.
    pub layers: u32,
    /// Hidden (model) dimension.
    pub hidden: u32,
    /// Number of attention (query) heads.
    pub heads: u32,
    /// Number of key/value heads (GQA); equals `heads` for MHA.
    pub kv_heads: u32,
    /// Per-head dimension.
    pub head_dim: u32,
    /// Weight and KV precision.
    pub dtype: DType,
}

impl ModelProfile {
    /// Meta Llama 3 8B (32 layers, GQA 8 KV heads).
    pub fn llama3_8b() -> Self {
        ModelProfile {
            name: "Llama3-8B".to_string(),
            params: 8_030_000_000,
            layers: 32,
            hidden: 4096,
            heads: 32,
            kv_heads: 8,
            head_dim: 128,
            dtype: DType::Fp16,
        }
    }

    /// Qwen2 7B (28 layers, GQA 4 KV heads).
    pub fn qwen2_7b() -> Self {
        ModelProfile {
            name: "Qwen2-7B".to_string(),
            params: 7_620_000_000,
            layers: 28,
            hidden: 3584,
            heads: 28,
            kv_heads: 4,
            head_dim: 128,
            dtype: DType::Fp16,
        }
    }

    /// Qwen2.5 7B (same skeleton as Qwen2-7B).
    pub fn qwen2_5_7b() -> Self {
        ModelProfile {
            name: "Qwen2.5-7B".to_string(),
            params: 7_610_000_000,
            layers: 28,
            hidden: 3584,
            heads: 28,
            kv_heads: 4,
            head_dim: 128,
            dtype: DType::Fp16,
        }
    }

    /// Qwen2.5 32B (64 layers, GQA 8 KV heads).
    pub fn qwen2_5_32b() -> Self {
        ModelProfile {
            name: "Qwen2.5-32B".to_string(),
            params: 32_760_000_000,
            layers: 64,
            hidden: 5120,
            heads: 40,
            kv_heads: 8,
            head_dim: 128,
            dtype: DType::Fp16,
        }
    }

    /// Bytes of KV cache stored per token across all layers.
    ///
    /// `2` covers the separate key and value tensors.
    pub fn kv_bytes_per_token(&self) -> u64 {
        2 * self.layers as u64 * self.kv_heads as u64 * self.head_dim as u64 * self.dtype.bytes()
    }

    /// Bytes occupied by model weights.
    pub fn weight_bytes(&self) -> u64 {
        self.params * self.dtype.bytes()
    }

    /// Dense FLOPs required to process one token through the linear layers
    /// (the classic `2 × params` estimate).
    pub fn flops_per_token(&self) -> f64 {
        2.0 * self.params as f64
    }

    /// Extra attention FLOPs for one new token attending over `context`
    /// previous tokens (QKᵀ plus AV across all layers).
    pub fn attn_flops(&self, context: u64) -> f64 {
        // 2 matmuls × 2 FLOPs per MAC × (kv_heads × head_dim) per layer.
        4.0 * self.layers as f64 * context as f64 * (self.heads as f64 * self.head_dim as f64)
    }

    /// All built-in profiles, handy for sweeps (mirrors
    /// `HardwareProfile::all`).
    pub fn all() -> Vec<ModelProfile> {
        vec![
            Self::llama3_8b(),
            Self::qwen2_7b(),
            Self::qwen2_5_7b(),
            Self::qwen2_5_32b(),
        ]
    }

    /// Looks a profile up by (case-insensitive) name.
    pub fn by_name(name: &str) -> Option<ModelProfile> {
        Self::all()
            .into_iter()
            .find(|p| p.name.eq_ignore_ascii_case(name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn llama3_kv_bytes_match_hand_calc() {
        // 2 × 32 layers × 8 kv heads × 128 dim × 2 bytes = 131072.
        assert_eq!(ModelProfile::llama3_8b().kv_bytes_per_token(), 131_072);
    }

    #[test]
    fn qwen2_7b_kv_bytes_match_hand_calc() {
        // 2 × 28 × 4 × 128 × 2 = 57344.
        assert_eq!(ModelProfile::qwen2_7b().kv_bytes_per_token(), 57_344);
    }

    #[test]
    fn qwen32b_kv_bytes_match_hand_calc() {
        // 2 × 64 × 8 × 128 × 2 = 262144.
        assert_eq!(ModelProfile::qwen2_5_32b().kv_bytes_per_token(), 262_144);
    }

    #[test]
    fn weight_bytes_scale_with_dtype() {
        let mut m = ModelProfile::llama3_8b();
        let fp16 = m.weight_bytes();
        m.dtype = DType::Fp8;
        assert_eq!(m.weight_bytes() * 2, fp16);
    }

    #[test]
    fn flops_per_token_is_2p() {
        let m = ModelProfile::llama3_8b();
        assert_eq!(m.flops_per_token(), 2.0 * 8_030_000_000.0);
    }

    #[test]
    fn attn_flops_grow_linearly_with_context() {
        let m = ModelProfile::llama3_8b();
        assert_eq!(m.attn_flops(2000), 2.0 * m.attn_flops(1000));
        assert_eq!(m.attn_flops(0), 0.0);
    }

    #[test]
    fn dtype_bytes() {
        assert_eq!(DType::Fp16.bytes(), 2);
        assert_eq!(DType::Bf16.bytes(), 2);
        assert_eq!(DType::Fp8.bytes(), 1);
        assert_eq!(DType::Int8.bytes(), 1);
    }
}
