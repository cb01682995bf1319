"""The C source of the fused forward kernels (step and prefill).

:func:`render_step_source` returns one translation unit: ``#define``
lines for the model shape, then a constant body.  The body's four entry
points run one cached forward step over ``seq`` new tokens per row,
split at the two transcendentals numpy must evaluate itself:

* ``repro_first`` — the embedding, then layer 0 up to its max-shifted
  attention scores;
* ``repro_mid(l)`` — layer ``l``'s softmax normalisation up to the
  inner half of its GELU;
* ``repro_next(l)`` — layer ``l``'s MLP output, then layer ``l+1`` up
  to its scores;
* ``repro_last`` — the last MLP output, the final layernorm of each
  row's last position, and the head.

A forward of an ``L``-layer model is ``2L+1`` C calls with numpy's
``exp`` (on the scores) and ``tanh`` (on the GELU's inner half) between
them.  The helpers take runtime sizes; ``repro_<helper>`` wrappers
export them, so the per-op tests call the very functions the entry
points call.  Design constraints, all in service of the byte-identity
contract with the numpy reference kernels:

* **Matmuls are delegated to numpy's own BLAS.**  The source never
  links a BLAS; it receives ``cblas_sgemm``/``cblas_sgemv`` function
  pointers at runtime (``repro_set_blas``), resolved by :mod:`.blas`
  from the OpenBLAS shared object numpy itself bundles.  Calling the
  same kernels numpy calls, with the same shapes, makes the large
  matmuls bit-identical by construction, at full BLAS speed.  numpy's
  dispatch is replayed exactly: a 2-D ``(rows, K) @ (K, N)`` product
  (the step) is one call over all rows, a 3-D one (the prefill) one
  call per batch row, and a one-row call is ``sgemv``, not ``sgemm``.
* **Attention q·Kᵀ / scores·V run per (row, head) slice.**  With one
  query per slice (``seq == 1``) numpy issues ``sgemv``, which inline
  kernels (``gemvt`` / ``gemvn``) replicate with the exact
  FMA/accumulation structure of the OpenBLAS sgemv microkernels —
  per-slice library calls dominate the profile at large batch.  The
  entry points use them only on the head-dim/seq-len domain they were
  validated on (``INLINE_ATTN``); outside it they issue per-slice
  ``cblas_sgemv`` calls (the same calls numpy issues).  Several queries
  per slice take per-slice ``cblas_sgemm`` calls, as numpy does, and
  the causal mask is numpy's ``np.where`` written as an explicit
  ``-1e9`` fill.
* **Reductions replicate numpy's pairwise summation** (``np_sum``):
  8-lane strided partials with the ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))``
  combine, recursive halving above 128 elements.
* **Transcendentals stay on the host.** ``expf``/``tanhf`` from libm
  round differently from numpy's SIMD kernels, so the entry points stop
  at each ``exp``/``tanh`` and the Python caller applies numpy in place
  on the flat scratch buffer (identical linear element order ⇒
  identical lanes ⇒ identical bits).
* Compiled with ``-ffp-contract=off`` so the only FMAs are the explicit
  ``fmaf()`` calls mirroring the BLAS microkernel structure.

The layer, the batch, ``seq``, ``start``, the KV-cache row stride
(``cap``) and the rows per dense BLAS call (``mrows``) are runtime
arguments, not compile constants: one library serves every layer,
batch and prompt length, and ``KVCache.gather``/``trimmed`` produce
buffers whose capacity differs from the block size.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass
from typing import Any, List, Tuple

import numpy as np

__all__ = [
    "CTX_GLOBAL_PTRS",
    "CTX_LAYER_PTRS",
    "CTX_CACHE_PTRS",
    "CTX_SCRATCH_PTRS",
    "INLINE_HEAD_DIMS",
    "StepShape",
    "ctx_ctypes_struct",
    "render_step_source",
]

# Head dims on which the inline attention kernels were validated bitwise
# against numpy's stacked matmul (423/423 shape/seq combinations, up to
# the INLINE_MAX_STOP positions the body defines).
INLINE_HEAD_DIMS = (16, 32, 64)

# Context-struct layout, shared between the C side (rendered below) and
# the ctypes Structure (ctx_ctypes_struct).  Order matters.  The weight
# fields carry the names GPT2Inference and its _BlockWeights use.
CTX_GLOBAL_PTRS = ("token_emb", "pos_emb", "ln_f_w", "ln_f_b", "lm_head")
CTX_LAYER_PTRS = (
    "ln1_w", "ln1_b", "qkv_w", "qkv_b", "proj_w", "proj_b",
    "ln2_w", "ln2_b", "fc_w", "fc_b", "fc_proj_w", "fc_proj_b",
)
CTX_CACHE_PTRS = ("keys", "values")
CTX_SCRATCH_PTRS = ("x", "h", "qkv", "scores", "att", "ff", "t", "logits")


@dataclass(frozen=True)
class StepShape:
    """The model shape one kernel library is compiled for.

    The weight *values* and the head layout reach the kernels at runtime
    through the context struct, so models that differ only in those
    render the same source and share a compiled library.
    """

    dim: int
    n_layers: int
    n_heads: int
    vocab_size: int
    head_transposed: bool  # lm_head passed as (vocab, dim), used transposed

    @property
    def head_dim(self) -> int:
        return self.dim // self.n_heads

    @property
    def ff_dim(self) -> int:
        return 4 * self.dim


def ctx_ctypes_struct(n_layers: int) -> type:
    """ctypes mirror of the rendered ``Ctx`` struct (all 8-byte fields)."""
    fields: List[Tuple[str, Any]] = [(name, ctypes.c_void_p) for name in CTX_GLOBAL_PTRS]
    fields.append(("head_trans", ctypes.c_int64))
    for name in CTX_LAYER_PTRS + CTX_CACHE_PTRS:
        fields.append((name, ctypes.c_void_p * n_layers))
    fields.append(("ids", ctypes.c_void_p))
    for name in CTX_SCRATCH_PTRS:
        fields.append((name, ctypes.c_void_p))
    return type("Ctx", (ctypes.Structure,), {"_fields_": fields})


def _f32(value: float) -> str:
    """Render a value as a C hex-float literal equal to float32(value)."""
    return float(np.float32(value)).hex() + "f"


_CTX_STRUCT = "\n".join(
    [
        "typedef struct {",
        "  const float *" + ", *".join(CTX_GLOBAL_PTRS) + ";",
        "  int64_t head_trans;",
        *(f"  const float *{name}[NL];" for name in CTX_LAYER_PTRS),
        *(f"  float *{name}[NL];" for name in CTX_CACHE_PTRS),
        "  const int64_t *ids;",
        "  float *" + ", *".join(CTX_SCRATCH_PTRS) + ";",
        "} Ctx;",
    ]
)

_BODY = (
    """\
typedef void (*sgemm_fn)(int32_t,int32_t,int32_t,blasint,blasint,blasint,float,
                         const float*,blasint,const float*,blasint,float,float*,blasint);
typedef void (*sgemv_fn)(int32_t,int32_t,blasint,blasint,float,
                         const float*,blasint,const float*,blasint,float,float*,blasint);
static sgemm_fn SGEMM; static sgemv_fn SGEMV;
void repro_set_blas(void* gemm, void* gemv){ SGEMM=(sgemm_fn)gemm; SGEMV=(sgemv_fn)gemv; }

/* Upper end of the validated inline-attention domain (positions). */
#define INLINE_MAX_STOP 48

"""
    + _CTX_STRUCT
    + """

/* ---- helpers: runtime sizes, the arithmetic of numpy's reference ---- */

/* numpy float32 pairwise summation: plain loop under 8 elements, 8-lane
   strided partials up to 128, recursive halving (split rounded down to
   a multiple of 8) above. */
static inline float np_sum(const float* a, int64_t n){
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

/* q @ K^T for one attention slice (K is (n, hd) row-major): replicates
   the OpenBLAS sgemv_t HASWELL kernel's 4/2/1-column blocking and 8-lane
   FMA accumulation, so the result is bit-identical to the library call. */
static inline void gemvt(const float*restrict q, const float*restrict K, float*restrict out,
                         int64_t n, int64_t hd){
  int64_t j=0;
  for(; j+4<=n; j+=4){
    for(int64_t cc=0;cc<4;cc++){
      const float*restrict k=K+(j+cc)*hd;
      float l[8]={0,0,0,0,0,0,0,0};
      int64_t i=0;
      for(; i+8<=hd; i+=8)
        for(int u=0;u<8;u++) l[u]=fmaf(q[i+u],k[i+u],l[u]);
      float m0=l[0]+l[4], m1=l[1]+l[5], m2=l[2]+l[6], m3=l[3]+l[7];
      float s=(m0+m1)+(m2+m3);
      for(; i<hd; i++) s=fmaf(q[i],k[i],s);
      out[j+cc]=s;
    }
  }
  if(n-j>=2){
    for(int64_t cc=0;cc<2;cc++){
      const float*restrict k=K+(j+cc)*hd;
      float l[4]={0,0,0,0};
      int64_t i=0;
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
    int64_t i=0;
    for(; i+8<=hd; i+=8)
      for(int u=0;u<8;u++) l[u]=l[u]+q[i+u]*k[i+u];
    float m0=l[0]+l[4], m1=l[1]+l[5], m2=l[2]+l[6], m3=l[3]+l[7];
    float s=(m0+m1)+(m2+m3);
    for(; i<hd; i++) s+=q[i]*k[i];
    out[j]=s;
  }
}

/* scores @ V for one slice (V is (n, hd) row-major): sequential fma per
   output column, the sgemv_n structure OpenBLAS uses for short n. */
static inline void gemvn(const float*restrict s, const float*restrict V, float*restrict out,
                         int64_t n, int64_t hd){
  for(int64_t d=0;d<hd;d++) out[d]=0.0f;
  for(int64_t jj=0;jj<n;jj++){
    float sv=s[jj];
    const float*restrict v=V+jj*hd;
    for(int64_t d=0;d<hd;d++) out[d]=fmaf(sv,v[d],out[d]);
  }
}

/* ``stride`` is the distance between source rows (the final layernorm
   reads only the last new position of each batch row). */
static inline void layer_norm(const float* x, int64_t stride, const float* w, const float* b,
                              float* out, int64_t rows, int64_t dim){
  for(int64_t r=0;r<rows;r++){
    const float* xr=x+r*stride; float* o=out+r*dim;
    float d[dim], sq[dim];
    float mu=np_sum(xr,dim)/(float)dim;
    for(int64_t i=0;i<dim;i++){ d[i]=xr[i]-mu; sq[i]=d[i]*d[i]; }
    float var=np_sum(sq,dim)/(float)dim;
    float s=sqrtf(var+EPS);
    for(int64_t i=0;i<dim;i++) o[i]=d[i]/s*w[i]+b[i];
  }
}

/* One query row of scores over ``stop`` positions: the scale, numpy's
   np.where fill of the positions from ``vis`` on (the causal mask), and
   the max shift that precedes the host exp. */
static inline void attn_prep(float* s, int64_t stop, int64_t vis, float kscale){
  float m=s[0]/kscale; s[0]=m;
  for(int64_t j=1;j<vis;j++){ s[j]/=kscale; if(s[j]>m) m=s[j]; }
  for(int64_t j=vis;j<stop;j++){ s[j]=NEG_FILL; if(s[j]>m) m=s[j]; }
  for(int64_t j=0;j<stop;j++) s[j]-=m;
}

/* The softmax normalisation that follows the host exp. */
static inline void attn_norm(float* s, int64_t stop){
  float ssum=np_sum(s,stop);
  for(int64_t j=0;j<stop;j++) s[j]/=ssum;
}

/* GELU around the host tanh: t = inner(x), tanh(t), t = outer(x, t). */
static inline void gelu_inner(const float* x, float* t, int64_t n){
  for(int64_t i=0;i<n;i++){ float v=x[i]; t[i]=GELU_C*(v+GELU_K*((v*v)*v)); }
}

static inline void gelu_outer(const float* x, float* t, int64_t n){
  for(int64_t i=0;i<n;i++) t[i]=(0.5f*x[i])*(1.0f+t[i]);
}

/* A @ B (row-major), one BLAS call per ``mrows``-row block: numpy's
   matmul issues one call for a 2-D operand and one per batch row for a
   3-D one.  A one-row block takes the sgemv path, as numpy itself does
   for a (1,K)@(K,N) matmul; the two round differently. */
static inline void mm(const float* A, const float* B, float* C, int64_t rows, int64_t mrows,
                      int64_t K, int64_t N){
  for(int64_t r=0;r<rows;r+=mrows){
    const float* a=A+r*K; float* o=C+r*N;
    if(mrows==1) SGEMV(101,112,K,N,1.0f,B,N,a,1,0.0f,o,1);
    else         SGEMM(101,111,111,mrows,N,K,1.0f,a,K,B,N,0.0f,o,N);
  }
}

/* A @ Bt^T for the tied head, whose (vocab, dim) base is used transposed. */
static inline void mm_t(const float* A, const float* Bt, float* C, int64_t M, int64_t K,
                        int64_t N){
  if(M==1) SGEMV(101,111,N,K,1.0f,Bt,K,A,1,0.0f,C,1);
  else     SGEMM(101,111,112,M,N,K,1.0f,A,K,Bt,K,0.0f,C,N);
}

static inline void add_rows(float* p, const float* bias, int64_t rows, int64_t n){
  for(int64_t r=0;r<rows;r++)
    for(int64_t i=0;i<n;i++) p[r*n+i]+=bias[i];
}

/* x += h, then x += bias: two numpy ops in the reference, so two loops. */
static inline void residual(float* x, const float* h, const float* bias, int64_t rows){
  for(int64_t r=0;r<rows;r++){
    float* xr=x+r*DIM; const float* hr=h+r*DIM;
    for(int i=0;i<DIM;i++) xr[i]+=hr[i];
    for(int i=0;i<DIM;i++) xr[i]+=bias[i];
  }
}

/* ---- stages: one forward over ``seq`` new tokens per row ---- */

/* Layer l from its first layernorm up to the max-shifted scores. */
static void attn_in(Ctx* c, int64_t l, int64_t batch, int64_t seq, int64_t start, int64_t cap,
                    int64_t mrows){
  int64_t rows=batch*seq, stop=start+seq;
  layer_norm(c->x, DIM, c->ln1_w[l], c->ln1_b[l], c->h, rows, DIM);
  mm(c->h, c->qkv_w[l], c->qkv, rows, mrows, DIM, 3*DIM);
  add_rows(c->qkv, c->qkv_b[l], rows, 3*DIM);
  for(int64_t r=0;r<rows;r++){
    int64_t b=r/seq, p=start+r%seq;
    for(int hh=0;hh<NH;hh++){
      float* kdst=c->keys[l]+(((b*NH)+hh)*cap+p)*HD;
      float* vdst=c->values[l]+(((b*NH)+hh)*cap+p)*HD;
      const float* ksrc=c->qkv+r*3*DIM+DIM+hh*HD;
      memcpy(kdst,ksrc,HD*sizeof(float));
      memcpy(vdst,ksrc+DIM,HD*sizeof(float));
    }
  }
  /* Query i of a slice sees positions [0, start+i]. */
  for(int64_t b=0;b<batch;b++){
    for(int hh=0;hh<NH;hh++){
      const float* K=c->keys[l]+((b*NH)+hh)*cap*HD;
      float* sb=c->scores+((b*NH)+hh)*seq*stop;
      if(seq==1){
        const float* q=c->qkv+b*3*DIM+hh*HD;
        if(INLINE_ATTN && stop<=INLINE_MAX_STOP) gemvt(q,K,sb,stop,HD);
        else SGEMV(101,111,stop,HD,1.0f,K,HD,q,1,0.0f,sb,1);
      }
      else SGEMM(101,111,112,seq,stop,HD,1.0f,c->qkv+b*seq*3*DIM+hh*HD,3*DIM,K,HD,0.0f,sb,stop);
      for(int64_t i=0;i<seq;i++) attn_prep(sb+i*stop, stop, start+i+1, KSCALE);
    }
  }
}

/* Layer l's MLP output, from the outer half of its GELU. */
static void mlp_out(Ctx* c, int64_t l, int64_t rows, int64_t mrows){
  gelu_outer(c->ff, c->t, rows*FFDIM);
  mm(c->t, c->fc_proj_w[l], c->h, rows, mrows, FFDIM, DIM);
  residual(c->x, c->h, c->fc_proj_b[l], rows);
}

/* ---- entry points: host exp after first/next, host tanh after mid ---- */

void repro_first(Ctx* c, int64_t batch, int64_t seq, int64_t start, int64_t cap, int64_t mrows){
  for(int64_t r=0;r<batch*seq;r++){
    const float* te=c->token_emb+c->ids[r]*DIM;
    const float* pe=c->pos_emb+(start+r%seq)*DIM;
    float* xr=c->x+r*DIM;
    for(int i=0;i<DIM;i++) xr[i]=te[i]+pe[i];
  }
  attn_in(c, 0, batch, seq, start, cap, mrows);
}

void repro_mid(Ctx* c, int64_t l, int64_t batch, int64_t seq, int64_t start, int64_t cap,
               int64_t mrows){
  int64_t rows=batch*seq, stop=start+seq;
  for(int64_t r=0;r<batch*NH*seq;r++) attn_norm(c->scores+r*stop, stop);
  /* Each slice goes straight into its columns of the (rows, DIM) layout
     numpy gets from att.transpose(0, 2, 1, 3).reshape. */
  for(int64_t b=0;b<batch;b++){
    for(int hh=0;hh<NH;hh++){
      const float* sb=c->scores+((b*NH)+hh)*seq*stop;
      const float* V=c->values[l]+((b*NH)+hh)*cap*HD;
      float* o=c->att+b*seq*DIM+hh*HD;
      if(seq==1){
        if(INLINE_ATTN && stop<=INLINE_MAX_STOP) gemvn(sb,V,o,stop,HD);
        else SGEMV(101,112,stop,HD,1.0f,V,HD,sb,1,0.0f,o,1);
      }
      else SGEMM(101,111,111,seq,HD,stop,1.0f,sb,stop,V,HD,0.0f,o,DIM);
    }
  }
  mm(c->att, c->proj_w[l], c->h, rows, mrows, DIM, DIM);
  residual(c->x, c->h, c->proj_b[l], rows);
  layer_norm(c->x, DIM, c->ln2_w[l], c->ln2_b[l], c->h, rows, DIM);
  mm(c->h, c->fc_w[l], c->ff, rows, mrows, DIM, FFDIM);
  add_rows(c->ff, c->fc_b[l], rows, FFDIM);
  gelu_inner(c->ff, c->t, rows*FFDIM);
}

void repro_next(Ctx* c, int64_t l, int64_t batch, int64_t seq, int64_t start, int64_t cap,
                int64_t mrows){
  mlp_out(c, l, batch*seq, mrows);
  attn_in(c, l+1, batch, seq, start, cap, mrows);
}

/* The final activations are 2-D (batch, DIM): one head call over all rows. */
void repro_last(Ctx* c, int64_t batch, int64_t seq, int64_t start, int64_t cap, int64_t mrows){
  mlp_out(c, NL-1, batch*seq, mrows);
  layer_norm(c->x+(seq-1)*DIM, seq*DIM, c->ln_f_w, c->ln_f_b, c->h, batch, DIM);
  if(c->head_trans) mm_t(c->h, c->lm_head, c->logits, batch, DIM, VOCAB);
  else              mm(c->h, c->lm_head, c->logits, batch, batch, DIM, VOCAB);
}

/* ---- the helpers, exported for the per-op tests ---- */

float repro_np_sum(const float* a, int64_t n){ return np_sum(a,n); }
void repro_gemvt(const float* q, const float* K, float* out, int64_t n, int64_t hd){
  gemvt(q,K,out,n,hd);
}
void repro_gemvn(const float* s, const float* V, float* out, int64_t n, int64_t hd){
  gemvn(s,V,out,n,hd);
}
void repro_layer_norm(const float* x, int64_t stride, const float* w, const float* b,
                      float* out, int64_t rows, int64_t dim){
  layer_norm(x,stride,w,b,out,rows,dim);
}
void repro_attn_prep(float* s, int64_t stop, int64_t vis, float kscale){
  attn_prep(s,stop,vis,kscale);
}
void repro_attn_norm(float* s, int64_t stop){ attn_norm(s,stop); }
void repro_gelu_inner(const float* x, float* t, int64_t n){ gelu_inner(x,t,n); }
void repro_gelu_outer(const float* x, float* t, int64_t n){ gelu_outer(x,t,n); }
void repro_mm(const float* A, const float* B, float* C, int64_t rows, int64_t mrows,
              int64_t K, int64_t N){
  mm(A,B,C,rows,mrows,K,N);
}
void repro_mm_t(const float* A, const float* Bt, float* C, int64_t M, int64_t K, int64_t N){
  mm_t(A,Bt,C,M,K,N);
}
"""
)


def render_step_source(shape: StepShape, blas_int64: bool) -> str:
    """The forward-step translation unit (step and prefill) for ``shape``:
    the shape's ``#define`` lines, then the constant body."""
    from .. import inference as _inf  # the GELU and mask constants live with the reference

    kscale = np.float32(np.sqrt(shape.head_dim))  # as GPT2Inference._kscale
    blasint = "int64_t" if blas_int64 else "int32_t"
    return f"""\
#include <stdint.h>
#include <math.h>
#include <string.h>

typedef {blasint} blasint;

#define DIM {shape.dim}
#define NH {shape.n_heads}
#define HD {shape.head_dim}
#define FFDIM {shape.ff_dim}
#define VOCAB {shape.vocab_size}
#define NL {shape.n_layers}
#define EPS {_f32(1e-5)}
#define KSCALE {_f32(kscale)}
#define GELU_C {_f32(_inf._GELU_C)}
#define GELU_K {_f32(0.044715)}
#define NEG_FILL {_f32(_inf._NEG_INF)}
#define INLINE_ATTN {int(shape.head_dim in INLINE_HEAD_DIMS)}

""" + _BODY
