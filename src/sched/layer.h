/**
 * @file
 * GEMM layer description unifying matrix convolution and matrix
 * multiplication (Table II of the paper).
 *
 * Both operation types reduce to an output (M x N) = input (M x K) x
 * weight (K x N) GEMM under the im2col view:
 *   M = OH * OW, K = WH * WW * IC, N = OC.
 *
 * Matrix multiplication A (M x K) x B (K x N) is encoded as a 1x1
 * convolution with IH = M, IW = 1, IC = K, OC = N (the standard
 * SCALE-Sim/ARM encoding): every formula below then applies uniformly to
 * both types. A fully-connected layer on one sample is the M = 1 case.
 */

#ifndef USYS_SCHED_LAYER_H
#define USYS_SCHED_LAYER_H

#include <string>
#include <vector>

#include "common/logging.h"
#include "common/types.h"

namespace usys {

/** GEMM operation type (Table II). */
enum class GemmType
{
    Convolution,
    MatMul,
};

/** One GEMM layer in the Table II parameterization. */
struct GemmLayer
{
    std::string name;
    GemmType type = GemmType::Convolution;
    int ih = 1, iw = 1, ic = 1; // input feature map height/width/channels
    int wh = 1, ww = 1;         // weight window
    int stride = 1;
    int oc = 1;                 // output channels

    /**
     * Fraction of this layer's input activations that are zero
     * (ReLU-induced; measured or assumed). Consumed by the roofline
     * model: the zero-stream-skipping schemes neither energize MAC
     * slots for zero activations nor re-stream their bytes. 0 models a
     * dense layer (the default — existing dumps are unchanged).
     */
    double act_sparsity = 0.0;

    /** Output feature-map height (OH = (IH - WH) / S + 1). */
    int oh() const { return (ih - wh) / stride + 1; }
    /** Output feature-map width. */
    int ow() const { return (iw - ww) / stride + 1; }

    /** GEMM output rows M = OH * OW. */
    i64 m() const { return i64(oh()) * ow(); }
    /** GEMM reduction dimension K = WH * WW * IC. */
    i64 k() const { return i64(wh) * ww * ic; }
    /** GEMM output columns N = OC. */
    i64 n() const { return oc; }
    /** Multiply-accumulate count M * K * N. */
    i64 macs() const { return m() * k() * n(); }

    /** Unique element counts of the three variables. */
    i64 ifmElems() const { return i64(ih) * iw * ic; }
    i64 weightElems() const { return k() * n(); }
    i64 ofmElems() const { return m() * n(); }

    void
    check() const
    {
        fatalIf(ih < wh || iw < ww, "GemmLayer: window exceeds input");
        fatalIf(stride < 1, "GemmLayer: bad stride");
        fatalIf(ic < 1 || oc < 1, "GemmLayer: bad channel counts");
        // Written so NaN fails too (every comparison with NaN is false).
        fatalIf(!(act_sparsity >= 0.0 && act_sparsity <= 1.0),
                "GemmLayer: act_sparsity outside [0, 1]");
        if (type == GemmType::MatMul) {
            fatalIf(wh != 1 || ww != 1 || iw != 1 || stride != 1,
                    "GemmLayer: matmul uses the 1x1-conv encoding");
        }
    }

    /** Convolution layer constructor. */
    static GemmLayer
    conv(std::string name, int ih, int iw, int ic, int wh, int ww,
         int stride, int oc)
    {
        GemmLayer l;
        l.name = std::move(name);
        l.type = GemmType::Convolution;
        l.ih = ih;
        l.iw = iw;
        l.ic = ic;
        l.wh = wh;
        l.ww = ww;
        l.stride = stride;
        l.oc = oc;
        l.check();
        return l;
    }

    /**
     * Matrix multiply: output (rows x cols) = input (rows x inner) x
     * weight (inner x cols). A single-sample FC layer is rows = 1.
     */
    static GemmLayer
    matmul(std::string name, int rows, int inner, int cols)
    {
        GemmLayer l;
        l.name = std::move(name);
        l.type = GemmType::MatMul;
        l.ih = rows;
        l.iw = 1;
        l.ic = inner;
        l.wh = 1;
        l.ww = 1;
        l.stride = 1;
        l.oc = cols;
        l.check();
        return l;
    }
};

} // namespace usys

#endif // USYS_SCHED_LAYER_H
