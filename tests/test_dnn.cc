/**
 * @file
 * Tests for the DNN substrate: layer forward correctness against naive
 * references, numerical gradient checks for every trainable layer,
 * backend quantization behavior, dataset determinism, training
 * convergence, and weight (de)serialization.
 */

#include <bit>
#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "common/prng.h"
#include "dnn/backend.h"
#include "dnn/data.h"
#include "dnn/models.h"
#include "dnn/train.h"

namespace usys {
namespace {

const NumericConfig kFp32{NumericMode::Fp32, 8};

/** Every numeric mode at EBT 6 and 8. */
std::vector<NumericConfig>
allModes()
{
    std::vector<NumericConfig> cfgs;
    for (NumericMode mode :
         {NumericMode::Fp32, NumericMode::FxpIres, NumericMode::FxpOres,
          NumericMode::UnaryRate, NumericMode::UnaryTemporal,
          NumericMode::UgemmH, NumericMode::TubGemm, NumericMode::TuGemm})
        for (int ebt : {6, 8})
            cfgs.push_back({mode, ebt});
    return cfgs;
}

/** Bitwise tensor equality (NaN payloads and signed zeros included). */
void
expectSameBits(const Tensor &got, const Tensor &want, const std::string &what)
{
    ASSERT_EQ(got.n(), want.n()) << what;
    ASSERT_EQ(got.c(), want.c()) << what;
    ASSERT_EQ(got.h(), want.h()) << what;
    ASSERT_EQ(got.w(), want.w()) << what;
    for (std::size_t i = 0; i < got.size(); ++i)
        ASSERT_EQ(std::bit_cast<u32>(got.raw()[i]),
                  std::bit_cast<u32>(want.raw()[i]))
            << what << " element " << i << ": " << got.raw()[i] << " vs "
            << want.raw()[i];
}

/**
 * The float lowering a quantize-once layer must match bit for bit:
 * float im2col of x, gemmWithMode (which quantizes the whole expansion)
 * with the K x N weight blob, then + bias into NCHW. A Linear layer is
 * the 1x1 case over (n, features, 1, 1).
 */
Tensor
floatLowering(const Tensor &x, int kernel, int stride, int pad,
              const std::vector<float> &weight,
              const std::vector<float> &bias, const NumericConfig &cfg)
{
    const int n = x.n(), c = x.c(), h = x.h(), w = x.w();
    const int out_h = (h + 2 * pad - kernel) / stride + 1;
    const int out_w = (w + 2 * pad - kernel) / stride + 1;
    const int k = c * kernel * kernel;
    const int out_ch = int(bias.size());
    MatF cols(n * out_h * out_w, k, 0.0f);
    for (int ni = 0; ni < n; ++ni)
        for (int oh = 0; oh < out_h; ++oh)
            for (int ow = 0; ow < out_w; ++ow) {
                const int row = (ni * out_h + oh) * out_w + ow;
                int col = 0;
                for (int ci = 0; ci < c; ++ci)
                    for (int kh = 0; kh < kernel; ++kh) {
                        const int ih = oh * stride + kh - pad;
                        for (int kw = 0; kw < kernel; ++kw, ++col) {
                            const int iw = ow * stride + kw - pad;
                            if (ih >= 0 && ih < h && iw >= 0 && iw < w)
                                cols(row, col) = x.at(ni, ci, ih, iw);
                        }
                    }
            }
    MatF wmat(k, out_ch);
    for (int r = 0; r < k; ++r)
        for (int oc = 0; oc < out_ch; ++oc)
            wmat(r, oc) = weight[std::size_t(r) * out_ch + oc];
    const MatF out = gemmWithMode(cols, wmat, cfg);
    Tensor y(n, out_ch, out_h, out_w);
    for (int ni = 0; ni < n; ++ni)
        for (int oh = 0; oh < out_h; ++oh)
            for (int ow = 0; ow < out_w; ++ow) {
                const int row = (ni * out_h + oh) * out_w + ow;
                for (int oc = 0; oc < out_ch; ++oc)
                    y.at(ni, oc, oh, ow) = out(row, oc) + bias[oc];
            }
    return y;
}

/** floatLowering() of one Conv2d or Linear layer's parameters. */
Tensor
layerFloatLowering(Layer &layer, const Tensor &x, const NumericConfig &cfg)
{
    const auto blobs = layer.paramBlobs();
    if (auto *conv = dynamic_cast<Conv2d *>(&layer))
        return floatLowering(x, conv->kernel(), conv->stride(), conv->pad(),
                             *blobs[0], *blobs[1], cfg);
    const Tensor flat = x.reshaped(x.n(), x.c() * x.h() * x.w(), 1, 1);
    return floatLowering(flat, 1, 1, 0, *blobs[0], *blobs[1], cfg);
}

Tensor
randomTensor(int n, int c, int h, int w, Prng &prng)
{
    Tensor t(n, c, h, w);
    for (auto &v : t.raw())
        v = float(prng.gaussian());
    return t;
}

TEST(Backend, Fp32GemmMatchesNaive)
{
    Prng prng(5);
    MatF a(4, 6), b(6, 3);
    for (auto &v : a.data())
        v = float(prng.gaussian());
    for (auto &v : b.data())
        v = float(prng.gaussian());
    const auto c = gemmFp32(a, b);
    for (int m = 0; m < 4; ++m)
        for (int n = 0; n < 3; ++n) {
            float expect = 0;
            for (int k = 0; k < 6; ++k)
                expect += a(m, k) * b(k, n);
            EXPECT_NEAR(c(m, n), expect, 1e-4);
        }
}

TEST(Backend, QuantizedModesApproachFp32WithBits)
{
    Prng prng(6);
    MatF a(8, 32), b(32, 8);
    for (auto &v : a.data())
        v = float(prng.gaussian());
    for (auto &v : b.data())
        v = float(prng.gaussian());
    const auto ref = gemmFp32(a, b);

    for (NumericMode mode : {NumericMode::FxpIres, NumericMode::FxpOres,
                             NumericMode::UnaryRate,
                             NumericMode::UnaryTemporal,
                             NumericMode::UgemmH}) {
        double prev = 1e18;
        for (int ebt : {4, 8, 12}) {
            const auto out = gemmWithMode(a, b, {mode, ebt});
            double err = 0, norm = 0;
            for (int m = 0; m < 8; ++m)
                for (int n = 0; n < 8; ++n) {
                    err += std::pow(out(m, n) - ref(m, n), 2);
                    norm += std::pow(ref(m, n), 2);
                }
            const double nrmse = std::sqrt(err / norm);
            EXPECT_LT(nrmse, prev * 1.05) << int(mode) << " ebt " << ebt;
            prev = nrmse;
        }
        EXPECT_LT(prev, 0.05) << int(mode);
    }
}

TEST(Backend, UnaryBetweenOresAndIres)
{
    // The paper's central accuracy ordering at matched EBT.
    Prng prng(7);
    MatF a(8, 64), b(64, 8);
    for (auto &v : a.data())
        v = float(prng.gaussian());
    for (auto &v : b.data())
        v = float(prng.gaussian());
    const auto ref = gemmFp32(a, b);
    auto nrmse = [&](NumericMode mode, int ebt) {
        const auto out = gemmWithMode(a, b, {mode, ebt});
        double err = 0, norm = 0;
        for (int m = 0; m < 8; ++m)
            for (int n = 0; n < 8; ++n) {
                err += std::pow(out(m, n) - ref(m, n), 2);
                norm += std::pow(ref(m, n), 2);
            }
        return std::sqrt(err / norm);
    };
    for (int ebt : {6, 8}) {
        const double o_res = nrmse(NumericMode::FxpOres, ebt);
        const double unary = nrmse(NumericMode::UnaryRate, ebt);
        const double i_res = nrmse(NumericMode::FxpIres, ebt);
        EXPECT_LT(i_res, unary) << ebt;
        EXPECT_LT(unary, o_res) << ebt;
    }
}

TEST(Layers, ConvForwardMatchesNaive)
{
    Prng prng(8);
    Conv2d conv(2, 3, 3, 1, 1, prng);
    Tensor x = randomTensor(2, 2, 5, 5, prng);
    const Tensor y = conv.forward(x, kFp32);
    ASSERT_EQ(y.c(), 3);
    ASSERT_EQ(y.h(), 5);
    ASSERT_EQ(y.w(), 5);

    // Naive direct convolution for one output position.
    auto blobs = conv.paramBlobs();
    const auto &w = *blobs[0];
    const auto &bias = *blobs[1];
    for (int oc = 0; oc < 3; ++oc) {
        float expect = bias[oc];
        const int oh = 2, ow = 3, ni = 1;
        int col = 0;
        for (int ci = 0; ci < 2; ++ci)
            for (int kh = 0; kh < 3; ++kh)
                for (int kw = 0; kw < 3; ++kw, ++col) {
                    const int ih = oh + kh - 1, iw = ow + kw - 1;
                    if (ih >= 0 && ih < 5 && iw >= 0 && iw < 5)
                        expect += x.at(ni, ci, ih, iw) *
                                  w[std::size_t(col) * 3 + oc];
                }
        EXPECT_NEAR(y.at(1, oc, 2, 3), expect, 1e-4) << oc;
    }
}

/** Central-difference gradient check through a small network. */
TEST(Layers, NumericalGradientCheck)
{
    Prng prng(9);
    Sequential net;
    net.add(std::make_unique<Conv2d>(1, 2, 3, 1, 1, prng));
    net.add(std::make_unique<ReLU>());
    net.add(std::make_unique<MaxPool2d>());
    net.add(std::make_unique<Linear>(2 * 3 * 3, 4, prng));

    Tensor x = randomTensor(2, 1, 6, 6, prng);
    const std::vector<int> labels{1, 3};

    auto loss_at = [&]() {
        Tensor logits = net.forward(x, kFp32);
        return softmaxCrossEntropy(logits, labels);
    };

    // Analytic gradients.
    Tensor logits = net.forward(x, kFp32);
    Tensor grad;
    softmaxCrossEntropy(logits, labels, &grad);
    Tensor grad_x = net.backward(grad);

    // Check input gradient entries by central differences.
    const float eps = 1e-3f;
    for (std::size_t i = 0; i < x.raw().size(); i += 7) {
        const float orig = x.raw()[i];
        x.raw()[i] = orig + eps;
        const double up = loss_at();
        x.raw()[i] = orig - eps;
        const double down = loss_at();
        x.raw()[i] = orig;
        const double numeric = (up - down) / (2 * eps);
        EXPECT_NEAR(grad_x.raw()[i], numeric,
                    5e-3 * std::max(1.0, std::abs(numeric)))
            << "index " << i;
    }
}

TEST(Layers, ResidualBlockGradientCheck)
{
    Prng prng(10);
    ResidualBlock block(2, 4, 2, prng); // projection path exercised
    Tensor x = randomTensor(1, 2, 6, 6, prng);

    auto loss_at = [&]() {
        Tensor y = block.forward(x, kFp32);
        double s = 0;
        for (float v : y.raw())
            s += v * v;
        return 0.5 * s;
    };

    Tensor y = block.forward(x, kFp32);
    Tensor grad = y; // dLoss/dy = y
    Tensor grad_x = block.backward(grad);

    const float eps = 1e-3f;
    for (std::size_t i = 0; i < x.raw().size(); i += 11) {
        const float orig = x.raw()[i];
        x.raw()[i] = orig + eps;
        const double up = loss_at();
        x.raw()[i] = orig - eps;
        const double down = loss_at();
        x.raw()[i] = orig;
        const double numeric = (up - down) / (2 * eps);
        EXPECT_NEAR(grad_x.raw()[i], numeric,
                    5e-3 * std::max(1.0, std::abs(numeric)));
    }
}

/**
 * Branchy reference max-pool: the first strict max over (dh, dw) order
 * wins, starting from -1e30 at flat index 0.
 */
void
referenceMaxPool(const Tensor &x, Tensor *y, std::vector<u32> *argmax)
{
    *y = Tensor(x.n(), x.c(), x.h() / 2, x.w() / 2);
    argmax->assign(y->size(), 0);
    std::size_t oi = 0;
    for (int ni = 0; ni < x.n(); ++ni)
        for (int ci = 0; ci < x.c(); ++ci)
            for (int oh = 0; oh < x.h() / 2; ++oh)
                for (int ow = 0; ow < x.w() / 2; ++ow, ++oi) {
                    float best = -1e30f;
                    u32 best_idx = 0;
                    for (int dh = 0; dh < 2; ++dh)
                        for (int dw = 0; dw < 2; ++dw) {
                            const int ih = oh * 2 + dh, iw = ow * 2 + dw;
                            const float v = x.at(ni, ci, ih, iw);
                            if (v > best) {
                                best = v;
                                best_idx = u32(
                                    ((std::size_t(ni) * x.c() + ci) *
                                         x.h() + ih) * x.w() + iw);
                            }
                        }
                    y->raw()[oi] = best;
                    (*argmax)[oi] = best_idx;
                }
}

TEST(Layers, MaxPoolRoutesGradientToArgmax)
{
    Prng prng(11);
    MaxPool2d pool;
    Tensor x(1, 1, 4, 4);
    for (std::size_t i = 0; i < x.raw().size(); ++i)
        x.raw()[i] = float(i);
    const Tensor y = pool.forward(x, kFp32);
    EXPECT_EQ(y.at(0, 0, 0, 0), 5.0f); // max of {0,1,4,5}
    Tensor g(1, 1, 2, 2);
    g.raw().assign(4, 1.0f);
    const Tensor gx = pool.backward(g);
    EXPECT_EQ(gx.at(0, 0, 1, 1), 1.0f);
    EXPECT_EQ(gx.at(0, 0, 0, 0), 0.0f);

    // Ties, NaNs and values at or below the start value pick the same
    // argmax as the branchy reference loop.
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float inf = std::numeric_limits<float>::infinity();
    // Eight 2x2 windows (two images, one channel, 4x4), each a 2x2 block
    // listed in (dh, dw) order.
    const float windows[8][4] = {
        {2, 2, 2, 2},          // four-way tie: first tap
        {1, 3, 3, 0},          // tie at the max: first of the tied
        {nan, 1, 5, 5},        // leading NaN never wins
        {4, nan, 4, 7},        // NaN mid-window is skipped
        {nan, nan, nan, nan},  // all NaN: -1e30 at flat index 0
        {-inf, -inf, -2e30f, -inf}, // nothing beats -1e30
        {-0.0f, 0.0f, -0.0f, 0.0f}, // signed zeros tie
        {-1e30f, -5, -5, -1},  // exact start value does not win
    };
    x = Tensor(2, 1, 4, 4);
    for (int wi = 0; wi < 8; ++wi) {
        const int ni = wi / 4, oh = (wi % 4) / 2, ow = wi % 2;
        for (int t = 0; t < 4; ++t)
            x.at(ni, 0, oh * 2 + t / 2, ow * 2 + t % 2) = windows[wi][t];
    }
    Tensor want_y;
    std::vector<u32> want_idx;
    referenceMaxPool(x, &want_y, &want_idx);

    expectSameBits(pool.forward(x, kFp32), want_y, "pooled");
    // Route a distinct gradient per window; the destination pins argmax.
    g = Tensor(2, 1, 2, 2);
    for (std::size_t i = 0; i < g.size(); ++i)
        g.raw()[i] = float(1 << i);
    Tensor want_gx(2, 1, 4, 4);
    for (std::size_t i = 0; i < g.size(); ++i)
        want_gx.raw()[want_idx[i]] += g.raw()[i];
    expectSameBits(pool.backward(g), want_gx, "routed gradient");
}

TEST(Layers, ReluMatchesStdMaxBitwise)
{
    const float vals[] = {-0.0f,
                          0.0f,
                          std::numeric_limits<float>::quiet_NaN(),
                          -std::numeric_limits<float>::quiet_NaN(),
                          -std::numeric_limits<float>::infinity(),
                          std::numeric_limits<float>::infinity(),
                          -std::numeric_limits<float>::denorm_min(),
                          std::numeric_limits<float>::denorm_min(),
                          -1.5f,
                          3.0f};
    Tensor x(1, 1, 1, std::size(vals));
    Tensor want = x;
    for (std::size_t i = 0; i < std::size(vals); ++i) {
        x.raw()[i] = vals[i];
        want.raw()[i] = std::max(vals[i], 0.0f);
    }
    ReLU relu;
    expectSameBits(relu.forward(x, kFp32), want, "relu");
}

TEST(Layers, QuantizedForwardMatchesFloatLowering)
{
    Prng prng(41);
    // Every Conv2d and Linear of Cnn4 and AlexLite, fed the activations
    // the network itself produces under the mode.
    for (const bool alex : {false, true}) {
        auto model = alex ? buildAlexLite(10, 5) : buildCnn4(10, 5);
        Tensor x(2, 1, 16, 16);
        for (auto &v : x.raw())
            v = float(prng.uniform());
        for (const NumericConfig &cfg : allModes()) {
            Tensor cur = x;
            for (std::size_t i = 0; i < model->layerCount(); ++i) {
                Layer &layer = model->layer(i);
                const Tensor y = layer.forward(cur, cfg);
                if (layer.name() == "conv" || layer.name() == "linear")
                    expectSameBits(
                        y, layerFloatLowering(layer, cur, cfg),
                        (alex ? "AlexLite " : "Cnn4 ") + cfg.name() +
                            " layer " + std::to_string(i));
                cur = y;
            }
        }
    }

    // ResLite's stride-2 1x1 projection reads only even rows and even
    // columns. Put the tensor's max |x| on a pixel it never reads: once
    // on an odd row, once on an odd column. Its scale must come from
    // the pixels the windows read.
    Conv2d proj(8, 16, 1, 2, 0, prng);
    const std::pair<int, int> spikes[] = {{3, 4}, {2, 5}};
    for (const auto &[ih, iw] : spikes) {
        Tensor x = randomTensor(2, 8, 8, 8, prng);
        x.at(1, 5, ih, iw) = -40.0f;
        for (const NumericConfig &cfg : allModes())
            expectSameBits(proj.forward(x, cfg),
                           layerFloatLowering(proj, x, cfg),
                           "projection " + cfg.name() + " spike (" +
                               std::to_string(ih) + "," +
                               std::to_string(iw) + ")");
    }
}

TEST(Layers, ConvBackwardIgnoresForwardMode)
{
    // Two identical layers; one first runs a forward on other data, then
    // forwards x under UR-8, the other forwards x under FP32. Backward
    // is float, so the gradients must agree bit for bit.
    Prng init_a(51), init_b(51), data(52);
    Conv2d a(3, 4, 3, 1, 1, init_a);
    Conv2d b(3, 4, 3, 1, 1, init_b);
    const Tensor other = randomTensor(2, 3, 6, 6, data);
    const Tensor x = randomTensor(2, 3, 6, 6, data);
    const Tensor grad_out = randomTensor(2, 4, 6, 6, data);

    a.forward(other, kFp32);
    a.forward(x, {NumericMode::UnaryRate, 8});
    b.forward(x, kFp32);
    expectSameBits(a.backward(grad_out), b.backward(grad_out), "grad_x");

    // With lr 1 and no momentum, step() subtracts exactly grad_w and
    // grad_b from the identical parameters.
    a.step(1.0f, 0.0f);
    b.step(1.0f, 0.0f);
    const auto pa = a.paramBlobs(), pb = b.paramBlobs();
    for (std::size_t blob = 0; blob < pa.size(); ++blob) {
        ASSERT_EQ(pa[blob]->size(), pb[blob]->size());
        for (std::size_t i = 0; i < pa[blob]->size(); ++i)
            ASSERT_EQ(std::bit_cast<u32>((*pa[blob])[i]),
                      std::bit_cast<u32>((*pb[blob])[i]))
                << "blob " << blob << " element " << i;
    }
}

TEST(Loss, SoftmaxCrossEntropyGradientSumsToZero)
{
    Prng prng(12);
    Tensor logits = randomTensor(3, 5, 1, 1, prng);
    Tensor grad;
    const double loss = softmaxCrossEntropy(logits, {0, 2, 4}, &grad);
    EXPECT_GT(loss, 0.0);
    for (int ni = 0; ni < 3; ++ni) {
        double sum = 0;
        for (int c = 0; c < 5; ++c)
            sum += grad.at(ni, c, 0, 0);
        EXPECT_NEAR(sum, 0.0, 1e-6);
    }
}

TEST(Data, DeterministicInSeed)
{
    const auto a = makeDigits(20, 99);
    const auto b = makeDigits(20, 99);
    const auto c = makeDigits(20, 100);
    EXPECT_EQ(a.images, b.images);
    EXPECT_EQ(a.labels, b.labels);
    EXPECT_NE(a.images, c.images);
    EXPECT_EQ(a.classes, 10);
    EXPECT_EQ(a.size, 16);
}

TEST(Data, AllTiersCoverAllClasses)
{
    for (const auto &ds :
         {makeDigits(400, 1), makeGratings(400, 1),
          makeHardGlyphs(400, 1)}) {
        std::vector<int> seen(ds.classes, 0);
        for (int l : ds.labels) {
            ASSERT_GE(l, 0);
            ASSERT_LT(l, ds.classes);
            seen[l] = 1;
        }
        for (int s : seen)
            EXPECT_EQ(s, 1);
    }
}

TEST(Train, ConvergesOnEasyDigits)
{
    const auto train = makeDigits(600, 21, 0.15f);
    const auto test = makeDigits(150, 22, 0.15f);
    auto model = buildCnn4(train.classes, 3);
    TrainOpts opts;
    opts.epochs = 4;
    trainClassifier(*model, train, opts);
    const double acc = evaluateAccuracy(*model, test, kFp32);
    EXPECT_GT(acc, 0.85);
}

TEST(Train, SaveLoadRoundtrip)
{
    const auto test = makeDigits(50, 23);
    auto model = buildCnn4(10, 3);
    const auto train = makeDigits(300, 24);
    TrainOpts opts;
    opts.epochs = 2;
    trainClassifier(*model, train, opts);
    const double acc = evaluateAccuracy(*model, test, kFp32);

    const std::string path = "/tmp/usys_test_weights.bin";
    ASSERT_TRUE(saveWeights(*model, path));
    auto fresh = buildCnn4(10, 99); // different init
    ASSERT_TRUE(loadWeights(*fresh, path));
    EXPECT_DOUBLE_EQ(evaluateAccuracy(*fresh, test, kFp32), acc);

    auto wrong = buildResLite(10, 3); // mismatched blob sizes
    EXPECT_FALSE(loadWeights(*wrong, path));
}

TEST(Layers, ForwardMixedMatchesUniformWhenConfigsEqual)
{
    Prng prng(31);
    auto model = buildCnn4(10, 3);
    Tensor x = randomTensor(2, 1, 16, 16, prng);
    const NumericConfig cfg{NumericMode::UnaryRate, 7};
    const Tensor uniform = model->forward(x, cfg);
    const std::vector<NumericConfig> per_layer(model->layerCount(), cfg);
    const Tensor mixed = model->forwardMixed(x, per_layer);
    ASSERT_EQ(uniform.size(), mixed.size());
    for (std::size_t i = 0; i < uniform.size(); ++i)
        EXPECT_FLOAT_EQ(uniform.raw()[i], mixed.raw()[i]);
}

TEST(Layers, ForwardMixedRejectsWrongArity)
{
    Prng prng(33);
    auto model = buildCnn4(10, 3);
    Tensor x = randomTensor(1, 1, 16, 16, prng);
    const std::vector<NumericConfig> too_few(2);
    EXPECT_EXIT(model->forwardMixed(x, too_few),
                ::testing::ExitedWithCode(1), "one config per sublayer");
}

TEST(Models, ParameterCountsOrdered)
{
    auto count = [](Sequential &m) {
        std::size_t total = 0;
        for (auto *blob : m.paramBlobs())
            total += blob->size();
        return total;
    };
    auto cnn4 = buildCnn4(10, 1);
    auto res = buildResLite(10, 1);
    auto alex = buildAlexLite(10, 1);
    // Mirrors the paper's small < medium < large parameter ordering.
    EXPECT_LT(count(*cnn4), count(*res));
    EXPECT_GT(count(*alex), 10000u);
}

} // namespace
} // namespace usys
