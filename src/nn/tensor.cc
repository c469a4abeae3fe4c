#include "nn/tensor.hh"

#include <algorithm>
#include <atomic>
#include <sstream>

#include "common/logging.hh"

namespace ad::nn {

namespace {

std::atomic<std::uint64_t> allocEvents{0};

} // namespace

std::uint64_t
allocEventCount()
{
    return allocEvents.load(std::memory_order_relaxed);
}

void
detail::noteAllocEvent()
{
    allocEvents.fetch_add(1, std::memory_order_relaxed);
}

Tensor::Tensor(int c, int h, int w) : c_(c), h_(h), w_(w)
{
    if (c < 0 || h < 0 || w < 0)
        panic("Tensor: negative shape ", c, "x", h, "x", w);
    const std::size_t n = static_cast<std::size_t>(c) * h * w;
    if (n > 0)
        detail::noteAllocEvent();
    data_.assign(n, 0.0f);
}

void
Tensor::fill(float value)
{
    std::fill(data_.begin(), data_.end(), value);
}

std::string
Tensor::shapeString() const
{
    std::ostringstream oss;
    oss << c_ << "x" << h_ << "x" << w_;
    return oss.str();
}

void
Tensor::assignFromImage(const Image& img)
{
    c_ = 1;
    h_ = img.height();
    w_ = img.width();
    const std::size_t n = img.size();
    if (data_.capacity() < n)
        detail::noteAllocEvent();
    data_.resize(n);
    float* dst = data_.data();
    const std::uint8_t* src = img.data();
    for (std::size_t i = 0; i < n; ++i)
        dst[i] = static_cast<float>(src[i]) * (1.0f / 255.0f);
}

Tensor
Tensor::concatChannels(const Tensor& a, const Tensor& b)
{
    if (a.height() != b.height() || a.width() != b.width())
        panic("concatChannels: spatial mismatch ", a.shapeString(), " vs ",
              b.shapeString());
    Tensor out(a.channels() + b.channels(), a.height(), a.width());
    std::copy(a.data(), a.data() + a.size(), out.data());
    std::copy(b.data(), b.data() + b.size(), out.data() + a.size());
    return out;
}

void
Tensor::assignConcat(const Tensor& a, const Tensor& b)
{
    if (a.height() != b.height() || a.width() != b.width())
        panic("assignConcat: spatial mismatch ", a.shapeString(), " vs ",
              b.shapeString());
    c_ = a.channels() + b.channels();
    h_ = a.height();
    w_ = a.width();
    const std::size_t n = a.size() + b.size();
    if (data_.capacity() < n)
        detail::noteAllocEvent();
    data_.resize(n);
    std::copy(a.data(), a.data() + a.size(), data_.data());
    std::copy(b.data(), b.data() + b.size(), data_.data() + a.size());
}

} // namespace ad::nn
