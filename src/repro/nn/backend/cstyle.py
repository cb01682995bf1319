"""C-source renderer for the fused forward-step kernels.

Turns the op graph from :mod:`.graph` into one translation unit with a
``repro_seg<i>`` function per fused segment; the decode step and the
prefill (``start``/``extend``) run the same segments with different
runtime arguments.  Design constraints, all in service of the
byte-identity contract with the numpy reference kernels:

* **Matmuls are delegated to numpy's own BLAS.**  The generated code
  never links a BLAS; it receives ``cblas_sgemm``/``cblas_sgemv``
  function pointers at runtime (``repro_set_blas``), resolved by
  :mod:`.blas` from the OpenBLAS shared object numpy itself bundles.
  Calling the same kernels numpy calls, with the same shapes, makes the
  large matmuls bit-identical by construction, at full BLAS speed.
  numpy's dispatch is replayed exactly: a 2-D ``(rows, K) @ (K, N)``
  product (the step) is one call over all rows, a 3-D one (the prefill)
  one call per batch row, and a one-row call is ``sgemv``, not
  ``sgemm``.
* **Attention q·Kᵀ / scores·V run per (row, head) slice.**  With one
  query per slice (``seq == 1``) numpy issues ``sgemv``, which inline
  kernels (``gemvt`` / ``gemvn``) replicate with the exact
  FMA/accumulation structure of the OpenBLAS sgemv microkernels —
  per-slice library calls dominate the profile at large batch.  The
  inline path is only emitted for the head-dim/seq-len domain it was
  validated on; outside it the code issues per-slice ``cblas_sgemv``
  calls (the same calls numpy issues).  Several queries per slice take
  per-slice ``cblas_sgemm`` calls, as numpy does, and the causal mask
  is numpy's ``np.where`` written as an explicit ``-1e9`` fill.
* **Reductions replicate numpy's pairwise summation** (``np_sum``):
  8-lane strided partials with the ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))``
  combine, recursive halving above 128 elements.
* **Transcendentals are host ops.** ``expf``/``tanhf`` from libm round
  differently from numpy's SIMD kernels, so segments stop at each
  ``exp``/``tanh`` and the Python driver applies numpy in place on the
  flat scratch buffer (identical linear element order ⇒ identical
  lanes ⇒ identical bits).
* Compiled with ``-ffp-contract=off`` so the only FMAs are the explicit
  ``fmaf()`` calls mirroring the BLAS microkernel structure.

The batch, ``seq``, ``start``, the KV-cache row stride (``cap``) and
the rows per dense BLAS call (``mrows``) are runtime arguments, not
compile constants: one library serves every batch and prompt length,
and ``KVCache.gather``/``trimmed`` produce buffers whose capacity
differs from ``block_size``.
"""

from __future__ import annotations

import ctypes
from typing import Any, List, Tuple

import numpy as np

from .graph import HostOp, Op, Segment, StepShape, build_step_graph, fuse_segments

__all__ = [
    "RENDERER_VERSION",
    "CTX_GLOBAL_PTRS",
    "CTX_LAYER_PTRS",
    "CTX_CACHE_PTRS",
    "CTX_SCRATCH_PTRS",
    "INLINE_HEAD_DIMS",
    "INLINE_MAX_STOP",
    "ctx_ctypes_struct",
    "render_step_source",
    "render_op_test_source",
]

# Bump when emitted C changes in any way — part of the cache digest.
RENDERER_VERSION = "2"

# Domain on which the inline attention kernels were validated bitwise
# against numpy's stacked matmul (423/423 shape/seq combinations).
INLINE_HEAD_DIMS = (16, 32, 64)
INLINE_MAX_STOP = 48

# Context-struct layout, shared between the C side (rendered below) and
# the ctypes Structure (ctx_ctypes_struct).  Order matters.
CTX_GLOBAL_PTRS = ("token_emb", "pos_emb", "lnf_w", "lnf_b", "lm_head")
CTX_LAYER_PTRS = (
    "ln1_w", "ln1_b", "qkv_w", "qkv_b", "proj_w", "proj_b",
    "ln2_w", "ln2_b", "fc_w", "fc_b", "fcp_w", "fcp_b",
)
CTX_CACHE_PTRS = ("keys", "values")
CTX_SCRATCH_PTRS = ("x", "h", "qkv", "scores", "att", "ff", "t", "logits")


def ctx_ctypes_struct(n_layers: int) -> type:
    """ctypes mirror of the rendered ``Ctx`` struct (all 8-byte fields)."""
    fields: List[Tuple[str, Any]] = [(name, ctypes.c_void_p) for name in CTX_GLOBAL_PTRS]
    fields.append(("head_trans", ctypes.c_int64))
    for name in CTX_LAYER_PTRS:
        fields.append((name, ctypes.c_void_p * n_layers))
    for name in CTX_CACHE_PTRS:
        fields.append((name, ctypes.c_void_p * n_layers))
    fields.append(("ids", ctypes.c_void_p))
    for name in CTX_SCRATCH_PTRS:
        fields.append((name, ctypes.c_void_p))
    return type("Ctx", (ctypes.Structure,), {"_fields_": fields})


def _f32(value: float) -> str:
    """Render a value as a C hex-float literal equal to float32(value)."""
    return float(np.float32(value)).hex() + "f"


# ----------------------------------------------------------------------
# Shared C preamble: helpers replicated from the validated prototype.
# ----------------------------------------------------------------------

_BLAS_GLUE = """\
typedef void (*sgemm_fn)(int32_t,int32_t,int32_t,blasint,blasint,blasint,float,
                         const float*,blasint,const float*,blasint,float,float*,blasint);
typedef void (*sgemv_fn)(int32_t,int32_t,blasint,blasint,float,
                         const float*,blasint,const float*,blasint,float,float*,blasint);
static sgemm_fn SGEMM; static sgemv_fn SGEMV;
void repro_set_blas(void* gemm, void* gemv){ SGEMM=(sgemm_fn)gemm; SGEMV=(sgemv_fn)gemv; }
"""

# q @ K^T per attention slice (K is (n, hd) row-major): replicates the
# OpenBLAS sgemv_t HASWELL kernel's 4/2/1-column blocking and 8-lane FMA
# accumulation, so the result is bit-identical to the library call.
_GEMVT = """\
static void gemvt(const float*restrict q, const float*restrict K, float*restrict out,
                  long n, long hd){
  long j=0;
  for(; j+4<=n; j+=4){
    for(long cc=0;cc<4;cc++){
      const float*restrict k=K+(j+cc)*hd;
      float l[8]={0,0,0,0,0,0,0,0};
      long i=0;
      for(; i+8<=hd; i+=8)
        for(int u=0;u<8;u++) l[u]=fmaf(q[i+u],k[i+u],l[u]);
      float m0=l[0]+l[4], m1=l[1]+l[5], m2=l[2]+l[6], m3=l[3]+l[7];
      float s=(m0+m1)+(m2+m3);
      for(; i<hd; i++) s=fmaf(q[i],k[i],s);
      out[j+cc]=s;
    }
  }
  if(n-j>=2){
    for(long cc=0;cc<2;cc++){
      const float*restrict k=K+(j+cc)*hd;
      float l[4]={0,0,0,0};
      long i=0;
      for(; i+4<=hd; i+=4)
        for(int u=0;u<4;u++) l[u]=l[u]+q[i+u]*k[i+u];
      float s=(l[0]+l[1])+(l[2]+l[3]);
      for(; i<hd; i++) s+=q[i]*k[i];
      out[j+cc]=s;
    }
    j+=2;
  }
  if(j<n){
    const float*restrict k=K+j*hd;
    float l[8]={0,0,0,0,0,0,0,0};
    long i=0;
    for(; i+8<=hd; i+=8)
      for(int u=0;u<8;u++) l[u]=l[u]+q[i+u]*k[i+u];
    float m0=l[0]+l[4], m1=l[1]+l[5], m2=l[2]+l[6], m3=l[3]+l[7];
    float s=(m0+m1)+(m2+m3);
    for(; i<hd; i++) s+=q[i]*k[i];
    out[j]=s;
  }
}
"""

# scores @ V per slice (V is (n, hd) row-major): sequential fma per
# output column — the sgemv_n structure OpenBLAS uses for short n.
_GEMVN = """\
static void gemvn(const float*restrict s, const float*restrict V, float*restrict out,
                  long n, long hd){
  for(long d=0;d<hd;d++) out[d]=0.0f;
  for(long jj=0;jj<n;jj++){
    float sv=s[jj];
    const float*restrict v=V+jj*hd;
    for(long d=0;d<hd;d++) out[d]=fmaf(sv,v[d],out[d]);
  }
}
"""

# numpy float32 pairwise summation: plain loop under 8 elements, 8-lane
# strided partials up to 128, recursive halving (split rounded down to a
# multiple of 8) above.
_NP_SUM = """\
static float np_sum(const float* a, int64_t n){
  if (n < 8){ float s=a[0]; for(int64_t i=1;i<n;i++) s+=a[i]; return s; }
  if (n <= 128){
    float r[8]; for(int l=0;l<8;l++) r[l]=a[l];
    int64_t i=8;
    for(; i+8<=n; i+=8) for(int l=0;l<8;l++) r[l]+=a[i+l];
    float s=((r[0]+r[1])+(r[2]+r[3]))+((r[4]+r[5])+(r[6]+r[7]));
    for(; i<n; i++) s+=a[i];
    return s;
  }
  int64_t n2=n/2; n2-=n2%8;
  return np_sum(a,n2)+np_sum(a+n2,n-n2);
}
"""

# Compile-time specialisation of np_sum for n == DIM (fully unrollable,
# same arithmetic as the 8..128 branch above).
_SUM_DIM = """\
static float sum_dim(const float*restrict a){
#if DIM >= 8 && DIM <= 128
  float r[8];
  for(int l=0;l<8;l++) r[l]=a[l];
  int i=8;
  for(; i+8<=DIM; i+=8)
    for(int l=0;l<8;l++) r[l]+=a[i+l];
  float s=((r[0]+r[1])+(r[2]+r[3]))+((r[4]+r[5])+(r[6]+r[7]));
  for(; i<DIM; i++) s+=a[i];
  return s;
#else
  return np_sum(a, DIM);
#endif
}
"""

# ``stride`` is the distance between source rows (the final layernorm
# reads only the last new position of each batch row).
_LAYER_NORM = """\
static void layer_norm(const float* x, int64_t stride, const float* w, const float* b,
                       float* out, int64_t rows){
  for(int64_t r=0;r<rows;r++){
    const float* xr=x+r*stride; float* o=out+r*DIM;
    float d[DIM], sq[DIM];
    float mu=sum_dim(xr)/(float)DIM;
    for(int i=0;i<DIM;i++){ d[i]=xr[i]-mu; sq[i]=d[i]*d[i]; }
    float var=sum_dim(sq)/(float)DIM;
    float s=sqrtf(var+EPS);
    for(int i=0;i<DIM;i++) o[i]=d[i]/s*w[i]+b[i];
  }
}
"""

# A @ B (row-major), one BLAS call per ``mrows``-row block: numpy's
# matmul issues one call for a 2-D operand and one per batch row for a
# 3-D one.  A one-row block takes the sgemv path — that is what numpy
# itself does for a (1,K)@(K,N) matmul, and the two round differently.
_MM = """\
static void mm(const float* A, const float* B, float* C, int64_t rows, int64_t mrows,
               int64_t K, int64_t N){
  for(int64_t r=0;r<rows;r+=mrows){
    const float* a=A+r*K; float* o=C+r*N;
    if(mrows==1) SGEMV(101,112,K,N,1.0f,B,N,a,1,0.0f,o,1);
    else         SGEMM(101,111,111,mrows,N,K,1.0f,a,K,B,N,0.0f,o,N);
  }
}
static void mm_t(const float* A, const float* Bt, float* C, int64_t M, int64_t K, int64_t N){
  if(M==1) SGEMV(101,111,N,K,1.0f,Bt,K,A,1,0.0f,C,1);
  else     SGEMM(101,111,112,M,N,K,1.0f,A,K,Bt,K,0.0f,C,N);
}
"""


def _preamble(blas_int64: bool) -> str:
    blasint = "int64_t" if blas_int64 else "int32_t"
    return (
        "#include <stdint.h>\n"
        "#include <math.h>\n"
        "#include <string.h>\n\n"
        f"typedef {blasint} blasint;\n" + _BLAS_GLUE
    )


def _ctx_struct_c(n_layers: int) -> str:
    lines = ["typedef struct {"]
    lines.append("  const float *" + ", *".join(CTX_GLOBAL_PTRS) + ";")
    lines.append("  int64_t head_trans;")
    for name in CTX_LAYER_PTRS:
        lines.append(f"  const float *{name}[{n_layers}];")
    for name in CTX_CACHE_PTRS:
        lines.append(f"  float *{name}[{n_layers}];")
    lines.append("  const int64_t *ids;")
    lines.append("  float *" + ", *".join(CTX_SCRATCH_PTRS) + ";")
    lines.append("} Ctx;")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Per-op emitters.  Each returns a brace-wrapped C block so declarations
# never collide across ops fused into one segment.
# ----------------------------------------------------------------------


def _wref(op: Op, attr: str) -> str:
    """C expression for a weight pointer: per-layer array or global."""
    name = op.attr(attr)
    if op.layer is None:
        return f"c->{name}"
    return f"c->{name}[{op.layer}]"


def _emit_embed(op: Op, shape: StepShape) -> str:
    return """\
  for(int64_t r=0;r<rows;r++){
    const float* te=c->token_emb+c->ids[r]*DIM;
    const float* pe=c->pos_emb+(start+r%seq)*DIM;
    float* xr=c->x+r*DIM;
    for(int i=0;i<DIM;i++) xr[i]=te[i]+pe[i];
  }
"""


def _emit_layernorm(op: Op, shape: StepShape) -> str:
    src, out = op.attr("src"), op.attr("out")
    w, b = _wref(op, "w"), _wref(op, "b")
    if op.attr("last"):
        return f"  layer_norm(c->{src}+(seq-1)*DIM, seq*DIM, {w}, {b}, c->{out}, batch);\n"
    return f"  layer_norm(c->{src}, DIM, {w}, {b}, c->{out}, rows);\n"


def _emit_matmul(op: Op, shape: StepShape) -> str:
    a, out = op.attr("a"), op.attr("out")
    k, n = op.attr("k"), op.attr("n")
    return f"  mm(c->{a}, {_wref(op, 'w')}, c->{out}, rows, mrows, {k}, {n});\n"


def _emit_bias_add(op: Op, shape: StepShape) -> str:
    buf, n = op.attr("buf"), op.attr("n")
    return f"""\
  for(int64_t r=0;r<rows;r++){{
    float* p=c->{buf}+r*{n}; const float* bb={_wref(op, 'b')};
    for(int i=0;i<{n};i++) p[i]+=bb[i];
  }}
"""


def _emit_cache_write(op: Op, shape: StepShape) -> str:
    layer = op.layer
    return f"""\
  for(int64_t r=0;r<rows;r++){{
    int64_t b=r/seq, p=start+r%seq;
    for(int hh=0;hh<NH;hh++){{
      float* kdst=c->keys[{layer}]+(((b*NH)+hh)*cap+p)*HD;
      float* vdst=c->values[{layer}]+(((b*NH)+hh)*cap+p)*HD;
      const float* ksrc=c->qkv+r*3*DIM+DIM+hh*HD;
      const float* vsrc=c->qkv+r*3*DIM+2*DIM+hh*HD;
      memcpy(kdst,ksrc,HD*sizeof(float));
      memcpy(vdst,vsrc,HD*sizeof(float));
    }}
  }}
"""


def _emit_attn_scores(op: Op, shape: StepShape) -> str:
    # Query i of a slice sees positions [0, start+i]; later ones take
    # numpy's np.where fill before the max shift.
    layer = op.layer
    blas = "SGEMV(101,111,stop,HD,1.0f,K,HD,q,1,0.0f,sb,1);"
    if shape.head_dim in INLINE_HEAD_DIMS:
        dot = f"if(stop<={INLINE_MAX_STOP}) gemvt(q,K,sb,stop,HD);\n        else {blas}"
    else:
        dot = blas
    return f"""\
  for(int64_t b=0;b<batch;b++){{
    for(int hh=0;hh<NH;hh++){{
      const float* K=c->keys[{layer}]+((b*NH)+hh)*cap*HD;
      float* sb=c->scores+((b*NH)+hh)*seq*stop;
      if(seq==1){{
        const float* q=c->qkv+b*3*DIM+hh*HD;
        {dot}
      }}
      else SGEMM(101,111,112,seq,stop,HD,1.0f,c->qkv+b*seq*3*DIM+hh*HD,3*DIM,K,HD,0.0f,sb,stop);
      for(int64_t i=0;i<seq;i++){{
        float* s=sb+i*stop; int64_t vis=start+i+1;
        float m=s[0]/KSCALE; s[0]=m;
        for(int64_t j=1;j<vis;j++){{ s[j]/=KSCALE; if(s[j]>m) m=s[j]; }}
        for(int64_t j=vis;j<stop;j++){{ s[j]=NEG_FILL; if(s[j]>m) m=s[j]; }}
        for(int64_t j=0;j<stop;j++) s[j]-=m;
      }}
    }}
  }}
"""


def _emit_softmax_norm(op: Op, shape: StepShape) -> str:
    return """\
  for(int64_t r=0;r<batch*NH*seq;r++){
    float* s=c->scores+r*stop;
    float ssum=np_sum(s,stop);
    for(int64_t j=0;j<stop;j++) s[j]/=ssum;
  }
"""


def _emit_attn_mix(op: Op, shape: StepShape) -> str:
    # Writes each slice straight into its columns of the (rows, DIM)
    # layout numpy gets from att.transpose(0, 2, 1, 3).reshape.
    layer = op.layer
    blas = "SGEMV(101,112,stop,HD,1.0f,V,HD,sb,1,0.0f,o,1);"
    if shape.head_dim in INLINE_HEAD_DIMS:
        mix = f"if(stop<={INLINE_MAX_STOP}) gemvn(sb,V,o,stop,HD);\n        else {blas}"
    else:
        mix = blas
    return f"""\
  for(int64_t b=0;b<batch;b++){{
    for(int hh=0;hh<NH;hh++){{
      const float* sb=c->scores+((b*NH)+hh)*seq*stop;
      const float* V=c->values[{layer}]+((b*NH)+hh)*cap*HD;
      float* o=c->att+b*seq*DIM+hh*HD;
      if(seq==1){{
        {mix}
      }}
      else SGEMM(101,111,111,seq,HD,stop,1.0f,sb,stop,V,HD,0.0f,o,DIM);
    }}
  }}
"""


def _emit_residual_add(op: Op, shape: StepShape) -> str:
    # Two separate loops on purpose: the reference does x += h then
    # x += bias as distinct numpy ops.
    return f"""\
  for(int64_t r=0;r<rows;r++){{
    float* xr=c->x+r*DIM; const float* hr=c->h+r*DIM; const float* pb={_wref(op, 'b')};
    for(int i=0;i<DIM;i++) xr[i]+=hr[i];
    for(int i=0;i<DIM;i++) xr[i]+=pb[i];
  }}
"""


def _emit_gelu_inner(op: Op, shape: StepShape) -> str:
    return """\
  { int64_t n=rows*FFDIM;
    for(int64_t i=0;i<n;i++){ float v=c->ff[i]; c->t[i]=GELU_C*(v+GELU_K*((v*v)*v)); } }
"""


def _emit_gelu_outer(op: Op, shape: StepShape) -> str:
    return """\
  { int64_t n=rows*FFDIM;
    for(int64_t i=0;i<n;i++) c->t[i]=(0.5f*c->ff[i])*(1.0f+c->t[i]); }
"""


def _emit_head(op: Op, shape: StepShape) -> str:
    # The final activations are 2-D (batch, DIM): one call over all rows.
    return """\
  if(c->head_trans) mm_t(c->h, c->lm_head, c->logits, batch, DIM, VOCAB);
  else              mm(c->h, c->lm_head, c->logits, batch, batch, DIM, VOCAB);
"""


_EMITTERS = {
    "embed": _emit_embed,
    "layernorm": _emit_layernorm,
    "matmul": _emit_matmul,
    "bias_add": _emit_bias_add,
    "cache_write": _emit_cache_write,
    "attn_scores": _emit_attn_scores,
    "softmax_norm": _emit_softmax_norm,
    "attn_mix": _emit_attn_mix,
    "residual_add": _emit_residual_add,
    "gelu_inner": _emit_gelu_inner,
    "gelu_outer": _emit_gelu_outer,
    "head": _emit_head,
}


def render_step_source(shape: StepShape, blas_int64: bool) -> str:
    """Render the forward-step translation unit (step and prefill) for ``shape``."""
    from .. import inference as _inf  # GELU constant lives with the reference

    shape.validate()
    program = fuse_segments(build_step_graph(shape))
    parts = [_preamble(blas_int64)]
    parts.append(
        f"""
#define DIM {shape.dim}
#define NH {shape.n_heads}
#define HD {shape.head_dim}
#define FFDIM {shape.ff_dim}
#define VOCAB {shape.vocab_size}
#define NL {shape.n_layers}
#define EPS {_f32(1e-5)}
#define KSCALE {_f32(shape.kscale)}
#define GELU_C {_f32(_inf._GELU_C)}
#define GELU_K {_f32(0.044715)}
#define NEG_FILL {_f32(_inf._NEG_INF)}
"""
    )
    if shape.head_dim in INLINE_HEAD_DIMS:
        parts.append(_GEMVT)
        parts.append(_GEMVN)
    parts.append(_ctx_struct_c(shape.n_layers))
    parts.append(_NP_SUM)
    parts.append(_SUM_DIM)
    parts.append(_LAYER_NORM)
    parts.append(_MM)
    for item in program:
        if isinstance(item, HostOp):
            parts.append(f"/* host op: numpy {item.func} on flat '{item.buf}' */\n")
            continue
        body = "".join(_EMITTERS[op.kind](op, shape) for op in item.ops)
        parts.append(
            f"void {item.name}(Ctx* c, int64_t batch, int64_t seq, int64_t start,"
            " int64_t cap, int64_t mrows){\n"
            "  int64_t stop=start+seq, rows=batch*seq;\n"
            "  (void)stop; (void)cap; (void)rows; (void)mrows;\n" + body + "}\n"
        )
    return "\n".join(parts)


def render_op_test_source(blas_int64: bool) -> str:
    """Standalone per-op kernels for the equivalence test-suite.

    Generic (runtime-dim) exports of the same emitter arithmetic, so each
    primitive can be validated against numpy in isolation.
    """
    from .. import inference as _inf

    gelu_c, gelu_k, eps = _f32(_inf._GELU_C), _f32(0.044715), _f32(1e-5)
    return (
        _preamble(blas_int64)
        + _GEMVT.replace("static void gemvt", "void repro_gemvt")
        + _GEMVN.replace("static void gemvn", "void repro_gemvn")
        + _NP_SUM.replace("static float np_sum", "float repro_sum")
        .replace("np_sum(a,n2)+np_sum(a+n2,n-n2)", "repro_sum(a,n2)+repro_sum(a+n2,n-n2)")
        + f"""
void repro_layer_norm(const float* x, const float* w, const float* b, float* out,
                      int64_t rows, int64_t dim){{
  for(int64_t r=0;r<rows;r++){{
    const float* xr=x+r*dim; float* o=out+r*dim;
    float d[dim], sq[dim];
    float mu=repro_sum(xr,dim)/(float)dim;
    for(int64_t i=0;i<dim;i++){{ d[i]=xr[i]-mu; sq[i]=d[i]*d[i]; }}
    float var=repro_sum(sq,dim)/(float)dim;
    float s=sqrtf(var+{eps});
    for(int64_t i=0;i<dim;i++) o[i]=d[i]/s*w[i]+b[i];
  }}
}}

void repro_gelu_inner(const float* x, float* t, int64_t n){{
  for(int64_t i=0;i<n;i++){{ float v=x[i]; t[i]={gelu_c}*(v+{gelu_k}*((v*v)*v)); }}
}}

void repro_gelu_outer(const float* x, float* t, int64_t n){{
  for(int64_t i=0;i<n;i++) t[i]=(0.5f*x[i])*(1.0f+t[i]);
}}

void repro_softmax_prep(float* s, int64_t n, float kscale){{
  float m=s[0]/kscale; s[0]=m;
  for(int64_t j=1;j<n;j++){{ s[j]/=kscale; if(s[j]>m) m=s[j]; }}
  for(int64_t j=0;j<n;j++) s[j]-=m;
}}

void repro_softmax_norm(float* s, int64_t n){{
  float ssum=repro_sum(s,n);
  for(int64_t j=0;j<n;j++) s[j]/=ssum;
}}

void repro_matmul(const float* A, const float* B, float* C,
                  int64_t M, int64_t K, int64_t N){{
  if(M==1) SGEMV(101,112,K,N,1.0f,B,N,A,1,0.0f,C,1);
  else     SGEMM(101,111,111,M,N,K,1.0f,A,K,B,N,0.0f,C,N);
}}

void repro_matmul_t(const float* A, const float* Bt, float* C,
                    int64_t M, int64_t K, int64_t N){{
  if(M==1) SGEMV(101,111,N,K,1.0f,Bt,K,A,1,0.0f,C,1);
  else     SGEMM(101,111,112,M,N,K,1.0f,A,K,Bt,K,0.0f,C,N);
}}
"""
    )
