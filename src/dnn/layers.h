/**
 * @file
 * Minimal DNN layer zoo with float training and mode-switchable
 * quantized/unary inference.
 *
 * forward() takes a NumericConfig so the same trained model can be
 * evaluated under FP32, fixed-point, or any unary scheme (Figure 9).
 * backward()/step() implement plain SGD-with-momentum training in float.
 */

#ifndef USYS_DNN_LAYERS_H
#define USYS_DNN_LAYERS_H

#include <memory>
#include <string>
#include <vector>

#include "common/prng.h"
#include "dnn/backend.h"
#include "dnn/numeric.h"
#include "dnn/tensor.h"

namespace usys {

/** Base layer: forward under a numeric mode, float backward, SGD step. */
class Layer
{
  public:
    virtual ~Layer() = default;

    /** Forward pass; caches activations needed by backward. */
    virtual Tensor forward(const Tensor &x, const NumericConfig &cfg) = 0;

    /** Backward pass (float); returns gradient w.r.t. the input. */
    virtual Tensor backward(const Tensor &grad_out) = 0;

    /** SGD-with-momentum parameter update. */
    virtual void step(float, float) {}

    /** Trainable parameter blobs (for (de)serialization). */
    virtual std::vector<std::vector<float> *> paramBlobs() { return {}; }

    virtual std::string name() const = 0;
};

/**
 * 2-D convolution as an im2col GEMM. Under a quantized mode the input
 * tensor is quantized once, with the scale of the largest |x| some
 * window reads, and im2col gathers its i32 codes into gemmCodes()
 * (DESIGN.md §19); FP32 gathers floats into gemmFp32(). Backward is
 * float whatever the forward mode was: it rebuilds the float im2col
 * from the cached input.
 */
class Conv2d : public Layer
{
  public:
    Conv2d(int in_ch, int out_ch, int kernel, int stride, int pad,
           Prng &init);

    Tensor forward(const Tensor &x, const NumericConfig &cfg) override;
    Tensor backward(const Tensor &grad_out) override;
    void step(float lr, float momentum) override;
    std::vector<std::vector<float> *> paramBlobs() override;
    std::string name() const override { return "conv"; }

    i64 macsPerSample(int in_h, int in_w) const;

    int kernel() const { return kernel_; }
    int stride() const { return stride_; }
    int pad() const { return pad_; }

  private:
    int in_ch_, out_ch_, kernel_, stride_, pad_;
    MatF weight_; // (K = in_ch*k*k) x out_ch
    std::vector<float> bias_;
    std::vector<float> grad_w_, grad_b_, vel_w_, vel_b_;
    Tensor input_; // cached forward input
};

/** Fully-connected layer: a 1x1 convolution over (n, in_features, 1, 1). */
class Linear : public Layer
{
  public:
    Linear(int in_features, int out_features, Prng &init);

    Tensor forward(const Tensor &x, const NumericConfig &cfg) override;
    Tensor backward(const Tensor &grad_out) override;
    void step(float lr, float momentum) override;
    std::vector<std::vector<float> *> paramBlobs() override;
    std::string name() const override { return "linear"; }

  private:
    int in_f_, out_f_;
    MatF weight_; // in_f x out_f
    std::vector<float> bias_;
    std::vector<float> grad_w_, grad_b_, vel_w_, vel_b_;
    Tensor input_;
    int in_n_ = 0, in_c_ = 0, in_h_ = 0, in_w_ = 0;
};

/** Rectified linear unit. */
class ReLU : public Layer
{
  public:
    Tensor forward(const Tensor &x, const NumericConfig &cfg) override;
    Tensor backward(const Tensor &grad_out) override;
    std::string name() const override { return "relu"; }

  private:
    Tensor input_;
};

/** 2x2 stride-2 max pooling. */
class MaxPool2d : public Layer
{
  public:
    Tensor forward(const Tensor &x, const NumericConfig &cfg) override;
    Tensor backward(const Tensor &grad_out) override;
    std::string name() const override { return "maxpool"; }

  private:
    std::vector<u32> argmax_; // flat input index of each output's max
    int in_n_ = 0, in_c_ = 0, in_h_ = 0, in_w_ = 0;
};

/** Layer pipeline. */
class Sequential : public Layer
{
  public:
    Sequential() = default;

    void add(std::unique_ptr<Layer> layer) { layers_.push_back(std::move(layer)); }

    Tensor forward(const Tensor &x, const NumericConfig &cfg) override;
    Tensor backward(const Tensor &grad_out) override;
    void step(float lr, float momentum) override;
    std::vector<std::vector<float> *> paramBlobs() override;
    std::string name() const override { return "sequential"; }

    std::size_t layerCount() const { return layers_.size(); }

    /** Sublayer i, in network order. */
    Layer &layer(std::size_t i) { return *layers_[i]; }

    /**
     * Mixed-precision forward: sublayer i runs under configs[i]. This
     * is how a per-layer early-termination schedule (the ISA's
     * MAC-cycle-count field programmed differently per layer) is
     * evaluated for accuracy.
     *
     * @param configs one NumericConfig per sublayer (size layerCount())
     */
    Tensor forwardMixed(const Tensor &x,
                        const std::vector<NumericConfig> &configs);

    /**
     * Forward pass that also measures the input zero fraction of every
     * GEMM sublayer (conv/linear), in network order — the real
     * ReLU-induced activation sparsity a zero-stream-skipping array
     * would see on this batch. Residual blocks report one entry per
     * block (the block input's zero fraction, covering its inner
     * convolutions). Appends to `gemm_input_zero_frac`.
     */
    Tensor forwardMeasuringSparsity(const Tensor &x,
                                    const NumericConfig &cfg,
                                    std::vector<double> *gemm_input_zero_frac);

  private:
    std::vector<std::unique_ptr<Layer>> layers_;
};

/** Residual block: out = relu(body(x) + shortcut(x)). */
class ResidualBlock : public Layer
{
  public:
    /**
     * Two 3x3 convolutions; a 1x1 projection shortcut is inserted when
     * the shape changes (stride > 1 or channel growth).
     */
    ResidualBlock(int in_ch, int out_ch, int stride, Prng &init);

    Tensor forward(const Tensor &x, const NumericConfig &cfg) override;
    Tensor backward(const Tensor &grad_out) override;
    void step(float lr, float momentum) override;
    std::vector<std::vector<float> *> paramBlobs() override;
    std::string name() const override { return "residual"; }

  private:
    Sequential body_;
    std::unique_ptr<Conv2d> projection_; // null for identity shortcut
    Tensor input_;
    Tensor sum_; // pre-ReLU sum for the backward mask
};

/**
 * Softmax cross-entropy over logits (N x classes).
 *
 * @param logits network output, H=W=1
 * @param labels per-sample class indices
 * @param grad optional out-param receiving dLoss/dLogits
 * @return mean loss
 */
double softmaxCrossEntropy(const Tensor &logits,
                           const std::vector<int> &labels,
                           Tensor *grad = nullptr);

/** Index of the max logit per sample. */
std::vector<int> argmaxLogits(const Tensor &logits);

} // namespace usys

#endif // USYS_DNN_LAYERS_H
