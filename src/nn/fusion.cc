#include "nn/fusion.hh"

#include "nn/quant.hh"

namespace ad::nn {

namespace {

/** Fuse the following Activation into layer i if the pair matches. */
bool
tryFuseActivation(Network& net, std::size_t i)
{
    if (i + 1 >= net.layerCount())
        return false;
    const auto* act = dynamic_cast<const Activation*>(&net.layer(i + 1));
    if (!act)
        return false;
    const float slope = act->leakySlope();
    Layer& layer = net.mutableLayer(i);
    if (auto* conv = dynamic_cast<Conv2D*>(&layer))
        conv->fuseActivation(slope);
    else if (auto* qconv = dynamic_cast<QuantConv2D*>(&layer))
        qconv->fuseActivation(slope);
    else if (auto* fc = dynamic_cast<FullyConnected*>(&layer))
        fc->fuseActivation(slope);
    else if (auto* qfc = dynamic_cast<QuantFullyConnected*>(&layer))
        qfc->fuseActivation(slope);
    else
        return false;
    net.removeLayer(i + 1);
    return true;
}

} // namespace

LoweringReport
lowerNetwork(Network& net, const Shape& input)
{
    LoweringReport report;
    // Mark a conv (either precision) direct when its unfold would be
    // a pure copy: 1x1, stride 1, no pad.
    const auto markDirect = [&](auto* conv) {
        if (conv && conv->kernel() == 1 && conv->stride() == 1 &&
            conv->pad() == 0) {
            conv->setDirectConv(true);
            ++report.directConvs;
        }
    };
    Shape s = input;
    for (std::size_t i = 0; i < net.layerCount(); ++i) {
        if (tryFuseActivation(net, i))
            ++report.fusedActivations;
        Layer& layer = net.mutableLayer(i);
        markDirect(dynamic_cast<Conv2D*>(&layer));
        markDirect(dynamic_cast<QuantConv2D*>(&layer));
        // Propagating the input shape checks the lowered chain
        // (outputShape panics on a mismatch); Activation preserves
        // shape, so the fused layer's output equals the pair's.
        s = layer.outputShape(s);
    }
    return report;
}

} // namespace ad::nn
