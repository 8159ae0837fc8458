#include "dnn/layers.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/fixed_point.h"

namespace usys {

namespace {

/** He-style normal initialization. */
void
initWeights(MatF &w, int fan_in, Prng &prng)
{
    const float stddev = std::sqrt(2.0f / float(fan_in));
    for (auto &v : w.data())
        v = float(prng.gaussian()) * stddev;
}

/** SGD with momentum over one parameter blob. */
void
sgdStep(std::vector<float> &param, std::vector<float> &grad,
        std::vector<float> &vel, float lr, float momentum)
{
    for (std::size_t i = 0; i < param.size(); ++i) {
        vel[i] = momentum * vel[i] - lr * grad[i];
        param[i] += vel[i];
        grad[i] = 0.0f;
    }
}

/**
 * Geometry of a convolution over an (n, c, h, w) input; Linear is the
 * 1x1 case over (n, in_features, 1, 1). GEMM row (ni * out_h + oh) *
 * out_w + ow is output pixel (ni, oh, ow); column (ci * k + kh) * k + kw
 * is the tap it reads from input channel ci.
 */
struct ConvGeom
{
    int n, c, h, w, kernel, stride, pad, out_h, out_w;

    ConvGeom(int n, int c, int h, int w, int kernel, int stride, int pad)
        : n(n), c(c), h(h), w(w), kernel(kernel), stride(stride), pad(pad),
          out_h((h + 2 * pad - kernel) / stride + 1),
          out_w((w + 2 * pad - kernel) / stride + 1)
    {}

    int rows() const { return n * out_h * out_w; }
    int cols() const { return c * kernel * kernel; }
};

ConvGeom
convGeom(const Tensor &x, int kernel, int stride, int pad)
{
    return {x.n(), x.c(), x.h(), x.w(), kernel, stride, pad};
}

/**
 * im2col: (N,C,H,W) -> rows() x cols(), over the float input (FP32
 * forward, backward) or its i32 codes (quantized forward). Padding taps
 * read T(0), which is also quantize(0).
 */
template <class T>
Matrix<T>
im2col(const T *x, const ConvGeom &g)
{
    Matrix<T> cols(g.rows(), g.cols(), T(0));
    T *dst = cols.data().data();
    if (g.kernel == g.h && g.kernel == g.w && g.stride == 1 && g.pad == 0) {
        // One window covers each whole image: rows are the images.
        std::copy(x, x + cols.size(), dst);
        return cols;
    }
    // Each window reads taps [lo, hi) of its rows and columns; the
    // rest stay T(0).
    const auto taps = [&](int first, int size) {
        return std::pair{std::max(0, -first),
                         std::min(g.kernel, size - first)};
    };
    for (int ni = 0; ni < g.n; ++ni) {
        for (int oh = 0; oh < g.out_h; ++oh) {
            const int ih0 = oh * g.stride - g.pad;
            const auto [kh_lo, kh_hi] = taps(ih0, g.h);
            for (int ow = 0; ow < g.out_w; ++ow) {
                const int iw0 = ow * g.stride - g.pad;
                const auto [kw_lo, kw_hi] = taps(iw0, g.w);
                for (int ci = 0; ci < g.c; ++ci) {
                    const T *plane =
                        x + (std::size_t(ni) * g.c + ci) * g.h * g.w;
                    for (int kh = kh_lo; kh < kh_hi; ++kh) {
                        const T *src = plane + std::size_t(ih0 + kh) * g.w;
                        T *row = dst + (ci * g.kernel + kh) * g.kernel;
                        for (int kw = kw_lo; kw < kw_hi; ++kw)
                            row[kw] = src[iw0 + kw];
                    }
                }
                dst += g.cols();
            }
        }
    }
    return cols;
}

/** col2im: scatter-add the gradient of im2col. */
void
col2im(const MatF &cols, Tensor &grad_x, const ConvGeom &g)
{
    for (int ni = 0; ni < g.n; ++ni) {
        for (int oh = 0; oh < g.out_h; ++oh) {
            for (int ow = 0; ow < g.out_w; ++ow) {
                const int row = (ni * g.out_h + oh) * g.out_w + ow;
                int col = 0;
                for (int ci = 0; ci < g.c; ++ci) {
                    for (int kh = 0; kh < g.kernel; ++kh) {
                        const int ih = oh * g.stride + kh - g.pad;
                        for (int kw = 0; kw < g.kernel; ++kw, ++col) {
                            const int iw = ow * g.stride + kw - g.pad;
                            if (ih >= 0 && ih < g.h && iw >= 0 && iw < g.w)
                                grad_x.at(ni, ci, ih, iw) += cols(row, col);
                        }
                    }
                }
            }
        }
    }
}

/** Which of `size` input positions along one axis some window reads. */
std::vector<char>
windowCoverage(int size, int out, int kernel, int stride, int pad)
{
    std::vector<char> covered(size, 0);
    for (int o = 0; o < out; ++o)
        for (int k = 0; k < kernel; ++k) {
            const int i = o * stride + k - pad;
            if (i >= 0 && i < size)
                covered[i] = 1;
        }
    return covered;
}

/**
 * max |x| over the pixels some window reads, which is maxAbs(im2col(x))
 * since padding taps read 0. A pixel is read iff its row and its column
 * are, so coverage is one mask per axis. A stride-2 1x1 window never
 * reads odd pixels, whose values must not set the scale.
 */
float
windowMaxAbs(const float *x, const ConvGeom &g)
{
    const auto rows = windowCoverage(g.h, g.out_h, g.kernel, g.stride, g.pad);
    const auto cols = windowCoverage(g.w, g.out_w, g.kernel, g.stride, g.pad);
    const auto all = [](const std::vector<char> &m) {
        return std::find(m.begin(), m.end(), 0) == m.end();
    };
    if (all(rows) && all(cols))
        return maxAbs(x, std::size_t(g.n) * g.c * g.h * g.w);
    float mx = 0.0f;
    for (int plane = 0; plane < g.n * g.c; ++plane)
        for (int ih = 0; ih < g.h; ++ih) {
            if (!rows[ih])
                continue;
            const float *row = x + (std::size_t(plane) * g.h + ih) * g.w;
            for (int iw = 0; iw < g.w; ++iw)
                mx = std::max(mx, cols[iw] ? std::fabs(row[iw]) : 0.0f);
        }
    return mx;
}

/**
 * y (n, N, out_h, out_w) = im2col(x) (MxK) x weight (KxN) + bias under
 * cfg. A quantized mode quantizes x once, gathers codes, and writes
 * float(acc * sa * sb * resultScale) + bias: the same two roundings, in
 * the same order, as dequantizing gemmWithMode(im2col(x), weight).
 */
Tensor
convForward(const Tensor &x, const ConvGeom &g, const MatF &weight,
            const std::vector<float> &bias, const NumericConfig &cfg)
{
    Tensor y(g.n, weight.cols(), g.out_h, g.out_w);
    const int plane = g.out_h * g.out_w;
    const auto write = [&](const auto &value) {
        float *out = y.data();
        for (int ni = 0; ni < g.n; ++ni)
            for (int oc = 0; oc < weight.cols(); ++oc)
                for (int p = 0; p < plane; ++p)
                    *out++ = value(ni * plane + p, oc) + bias[oc];
    };

    if (cfg.mode == NumericMode::Fp32) {
        const MatF out = gemmFp32(im2col(x.data(), g), weight);
        write([&](int row, int oc) { return out(row, oc); });
        return y;
    }
    const OperandBits bits = operandBits(cfg);
    const double sa = symmetricScale(windowMaxAbs(x.data(), g), bits.a);
    std::vector<i32> qx(x.size());
    quantizeInto(x.data(), x.size(), sa, bits.a, qx.data());
    const QuantizedMat qw = quantizeMat(weight, bits.b);
    const CodeGemm r = gemmCodes(im2col(qx.data(), g), qw.codes, cfg);
    const double factor = sa * qw.scale * r.result_scale;
    write([&](int row, int oc) {
        return float(double(r.acc(row, oc)) * factor);
    });
    return y;
}

/** std::max(v, 0.0f) with no data-dependent branch: NaN and -0 pass. */
float
relu(float v)
{
    return std::bit_cast<float>(std::bit_cast<u32>(v) &
                                (u32(v < 0.0f) - 1u));
}

} // namespace

// --- Conv2d ----------------------------------------------------------------

Conv2d::Conv2d(int in_ch, int out_ch, int kernel, int stride, int pad,
               Prng &init)
    : in_ch_(in_ch), out_ch_(out_ch), kernel_(kernel), stride_(stride),
      pad_(pad), weight_(in_ch * kernel * kernel, out_ch)
{
    bias_.assign(out_ch, 0.0f);
    grad_w_.assign(weight_.size(), 0.0f);
    grad_b_.assign(bias_.size(), 0.0f);
    vel_w_.assign(weight_.size(), 0.0f);
    vel_b_.assign(bias_.size(), 0.0f);
    initWeights(weight_, weight_.rows(), init);
}

i64
Conv2d::macsPerSample(int in_h, int in_w) const
{
    const i64 oh = (in_h + 2 * pad_ - kernel_) / stride_ + 1;
    const i64 ow = (in_w + 2 * pad_ - kernel_) / stride_ + 1;
    return oh * ow * i64(in_ch_) * kernel_ * kernel_ * out_ch_;
}

Tensor
Conv2d::forward(const Tensor &x, const NumericConfig &cfg)
{
    input_ = x;
    return convForward(x, convGeom(x, kernel_, stride_, pad_), weight_,
                       bias_, cfg);
}

Tensor
Conv2d::backward(const Tensor &grad_out)
{
    const ConvGeom geom = convGeom(input_, kernel_, stride_, pad_);
    const int k = geom.cols();
    const int rows = geom.rows();
    const MatF cols = im2col(input_.data(), geom);

    // Flatten grad_out to (rows x out_ch).
    MatF g(rows, out_ch_);
    for (int ni = 0; ni < geom.n; ++ni)
        for (int oh = 0; oh < geom.out_h; ++oh)
            for (int ow = 0; ow < geom.out_w; ++ow) {
                const int row = (ni * geom.out_h + oh) * geom.out_w + ow;
                for (int oc = 0; oc < out_ch_; ++oc)
                    g(row, oc) = grad_out.at(ni, oc, oh, ow);
            }

    // grad_w (k x out_ch) = cols^T x g; grad_b = column sums of g.
    for (int r = 0; r < rows; ++r) {
        for (int kk = 0; kk < k; ++kk) {
            const float cv = cols(r, kk);
            if (cv == 0.0f)
                continue;
            float *gw = &grad_w_[std::size_t(kk) * out_ch_];
            const float *gr = &g(r, 0);
            for (int oc = 0; oc < out_ch_; ++oc)
                gw[oc] += cv * gr[oc];
        }
        for (int oc = 0; oc < out_ch_; ++oc)
            grad_b_[oc] += g(r, oc);
    }

    // grad_cols (rows x k) = g x W^T, then scatter back with col2im.
    MatF grad_cols(rows, k, 0.0f);
    for (int r = 0; r < rows; ++r) {
        for (int oc = 0; oc < out_ch_; ++oc) {
            const float gv = g(r, oc);
            if (gv == 0.0f)
                continue;
            for (int kk = 0; kk < k; ++kk)
                grad_cols(r, kk) += gv * weight_(kk, oc);
        }
    }
    Tensor grad_x(input_.n(), input_.c(), input_.h(), input_.w());
    col2im(grad_cols, grad_x, geom);
    return grad_x;
}

void
Conv2d::step(float lr, float momentum)
{
    sgdStep(weight_.data(), grad_w_, vel_w_, lr, momentum);
    sgdStep(bias_, grad_b_, vel_b_, lr, momentum);
}

std::vector<std::vector<float> *>
Conv2d::paramBlobs()
{
    return {&weight_.data(), &bias_};
}

// --- Linear ------------------------------------------------------------------

Linear::Linear(int in_features, int out_features, Prng &init)
    : in_f_(in_features), out_f_(out_features),
      weight_(in_features, out_features)
{
    bias_.assign(out_f_, 0.0f);
    grad_w_.assign(weight_.size(), 0.0f);
    grad_b_.assign(bias_.size(), 0.0f);
    vel_w_.assign(weight_.size(), 0.0f);
    vel_b_.assign(bias_.size(), 0.0f);
    initWeights(weight_, in_f_, init);
}

Tensor
Linear::forward(const Tensor &x, const NumericConfig &cfg)
{
    input_ = x;
    in_n_ = x.n();
    in_c_ = x.c();
    in_h_ = x.h();
    in_w_ = x.w();
    const int per_sample = in_c_ * in_h_ * in_w_;
    fatalIf(per_sample != in_f_, "Linear: input feature mismatch");
    return convForward(x, {in_n_, in_f_, 1, 1, 1, 1, 0}, weight_, bias_,
                       cfg);
}

Tensor
Linear::backward(const Tensor &grad_out)
{
    Tensor grad_x(in_n_, in_c_, in_h_, in_w_);
    for (int ni = 0; ni < in_n_; ++ni) {
        const float *xin = &input_.raw()[std::size_t(ni) * in_f_];
        float *gx = &grad_x.raw()[std::size_t(ni) * in_f_];
        for (int o = 0; o < out_f_; ++o) {
            const float gv = grad_out.at(ni, o, 0, 0);
            grad_b_[o] += gv;
            if (gv == 0.0f)
                continue;
            for (int f = 0; f < in_f_; ++f) {
                grad_w_[std::size_t(f) * out_f_ + o] += gv * xin[f];
                gx[f] += gv * weight_(f, o);
            }
        }
    }
    return grad_x;
}

void
Linear::step(float lr, float momentum)
{
    sgdStep(weight_.data(), grad_w_, vel_w_, lr, momentum);
    sgdStep(bias_, grad_b_, vel_b_, lr, momentum);
}

std::vector<std::vector<float> *>
Linear::paramBlobs()
{
    return {&weight_.data(), &bias_};
}

// --- ReLU / MaxPool ---------------------------------------------------------

Tensor
ReLU::forward(const Tensor &x, const NumericConfig &)
{
    input_ = x;
    Tensor y(x.n(), x.c(), x.h(), x.w());
    for (std::size_t i = 0; i < x.size(); ++i)
        y.data()[i] = relu(x.data()[i]);
    return y;
}

Tensor
ReLU::backward(const Tensor &grad_out)
{
    Tensor g = grad_out;
    for (std::size_t i = 0; i < g.raw().size(); ++i)
        if (input_.raw()[i] <= 0.0f)
            g.raw()[i] = 0.0f;
    return g;
}

Tensor
MaxPool2d::forward(const Tensor &x, const NumericConfig &)
{
    in_n_ = x.n();
    in_c_ = x.c();
    in_h_ = x.h();
    in_w_ = x.w();
    const int out_h = x.h() / 2, out_w = x.w() / 2;
    Tensor y(x.n(), x.c(), out_h, out_w);
    argmax_.resize(y.size());
    // Window taps in (dh, dw) order; the first strict max wins. The
    // update is a bitwise select, so no branch depends on the data.
    const u32 taps[4] = {0, 1, u32(x.w()), u32(x.w()) + 1};
    const float *src = x.data();
    std::size_t oi = 0;
    for (int plane = 0; plane < x.n() * x.c(); ++plane)
        for (int oh = 0; oh < out_h; ++oh)
            for (int ow = 0; ow < out_w; ++ow, ++oi) {
                const u32 corner = u32(
                    (std::size_t(plane) * x.h() + oh * 2) * x.w() + ow * 2);
                u32 best = std::bit_cast<u32>(-1e30f);
                u32 best_idx = 0;
                for (const u32 tap : taps) {
                    const u32 idx = corner + tap;
                    const float v = src[idx];
                    const u32 take = -u32(v > std::bit_cast<float>(best));
                    best = (std::bit_cast<u32>(v) & take) | (best & ~take);
                    best_idx = (idx & take) | (best_idx & ~take);
                }
                y.data()[oi] = std::bit_cast<float>(best);
                argmax_[oi] = best_idx;
            }
    return y;
}

Tensor
MaxPool2d::backward(const Tensor &grad_out)
{
    Tensor g(in_n_, in_c_, in_h_, in_w_);
    for (std::size_t i = 0; i < grad_out.size(); ++i)
        g.raw()[argmax_[i]] += grad_out.raw()[i];
    return g;
}

// --- Sequential ---------------------------------------------------------------

Tensor
Sequential::forward(const Tensor &x, const NumericConfig &cfg)
{
    Tensor cur = x;
    for (auto &layer : layers_)
        cur = layer->forward(cur, cfg);
    return cur;
}

Tensor
Sequential::forwardMixed(const Tensor &x,
                         const std::vector<NumericConfig> &configs)
{
    fatalIf(configs.size() != layers_.size(),
            "forwardMixed: one config per sublayer required");
    Tensor cur = x;
    for (std::size_t i = 0; i < layers_.size(); ++i)
        cur = layers_[i]->forward(cur, configs[i]);
    return cur;
}

Tensor
Sequential::forwardMeasuringSparsity(const Tensor &x,
                                     const NumericConfig &cfg,
                                     std::vector<double> *gemm_input_zero_frac)
{
    Tensor cur = x;
    for (auto &layer : layers_) {
        const std::string kind = layer->name();
        if (kind == "conv" || kind == "linear" || kind == "residual")
            gemm_input_zero_frac->push_back(cur.zeroFraction());
        cur = layer->forward(cur, cfg);
    }
    return cur;
}

Tensor
Sequential::backward(const Tensor &grad_out)
{
    Tensor g = grad_out;
    for (auto it = layers_.rbegin(); it != layers_.rend(); ++it)
        g = (*it)->backward(g);
    return g;
}

void
Sequential::step(float lr, float momentum)
{
    for (auto &layer : layers_)
        layer->step(lr, momentum);
}

std::vector<std::vector<float> *>
Sequential::paramBlobs()
{
    std::vector<std::vector<float> *> blobs;
    for (auto &layer : layers_)
        for (auto *blob : layer->paramBlobs())
            blobs.push_back(blob);
    return blobs;
}

// --- ResidualBlock -----------------------------------------------------------

ResidualBlock::ResidualBlock(int in_ch, int out_ch, int stride, Prng &init)
{
    body_.add(std::make_unique<Conv2d>(in_ch, out_ch, 3, stride, 1, init));
    body_.add(std::make_unique<ReLU>());
    body_.add(std::make_unique<Conv2d>(out_ch, out_ch, 3, 1, 1, init));
    if (stride != 1 || in_ch != out_ch) {
        projection_ =
            std::make_unique<Conv2d>(in_ch, out_ch, 1, stride, 0, init);
    }
}

Tensor
ResidualBlock::forward(const Tensor &x, const NumericConfig &cfg)
{
    input_ = x;
    Tensor main = body_.forward(x, cfg);
    Tensor shortcut = projection_ ? projection_->forward(x, cfg) : x;
    sum_ = main;
    for (std::size_t i = 0; i < sum_.raw().size(); ++i)
        sum_.raw()[i] += shortcut.raw()[i];
    Tensor y = sum_;
    for (auto &v : y.raw())
        v = relu(v);
    return y;
}

Tensor
ResidualBlock::backward(const Tensor &grad_out)
{
    Tensor g = grad_out;
    for (std::size_t i = 0; i < g.raw().size(); ++i)
        if (sum_.raw()[i] <= 0.0f)
            g.raw()[i] = 0.0f;

    Tensor grad_main = body_.backward(g);
    if (projection_) {
        Tensor grad_short = projection_->backward(g);
        for (std::size_t i = 0; i < grad_main.raw().size(); ++i)
            grad_main.raw()[i] += grad_short.raw()[i];
    } else {
        for (std::size_t i = 0; i < grad_main.raw().size(); ++i)
            grad_main.raw()[i] += g.raw()[i];
    }
    return grad_main;
}

void
ResidualBlock::step(float lr, float momentum)
{
    body_.step(lr, momentum);
    if (projection_)
        projection_->step(lr, momentum);
}

std::vector<std::vector<float> *>
ResidualBlock::paramBlobs()
{
    auto blobs = body_.paramBlobs();
    if (projection_)
        for (auto *blob : projection_->paramBlobs())
            blobs.push_back(blob);
    return blobs;
}

// --- Loss ----------------------------------------------------------------------

double
softmaxCrossEntropy(const Tensor &logits, const std::vector<int> &labels,
                    Tensor *grad)
{
    const int n = logits.n();
    const int classes = logits.c();
    fatalIf(int(labels.size()) != n, "softmaxCrossEntropy: label count");
    if (grad)
        *grad = Tensor(n, classes, 1, 1);

    double loss = 0.0;
    for (int ni = 0; ni < n; ++ni) {
        float mx = -1e30f;
        for (int c = 0; c < classes; ++c)
            mx = std::max(mx, logits.at(ni, c, 0, 0));
        double denom = 0.0;
        for (int c = 0; c < classes; ++c)
            denom += std::exp(double(logits.at(ni, c, 0, 0)) - mx);
        const double log_denom = std::log(denom);
        const double logit_y = logits.at(ni, labels[ni], 0, 0) - mx;
        loss += log_denom - logit_y;
        if (grad) {
            for (int c = 0; c < classes; ++c) {
                const double p =
                    std::exp(double(logits.at(ni, c, 0, 0)) - mx) / denom;
                grad->at(ni, c, 0, 0) =
                    float((p - (c == labels[ni] ? 1.0 : 0.0)) / n);
            }
        }
    }
    return loss / n;
}

std::vector<int>
argmaxLogits(const Tensor &logits)
{
    std::vector<int> out(logits.n());
    for (int ni = 0; ni < logits.n(); ++ni) {
        int best = 0;
        for (int c = 1; c < logits.c(); ++c)
            if (logits.at(ni, c, 0, 0) > logits.at(ni, best, 0, 0))
                best = c;
        out[ni] = best;
    }
    return out;
}

} // namespace usys
