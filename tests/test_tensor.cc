/**
 * @file
 * Tests for the CHW tensor container and its image/concat conversions.
 */

#include <gtest/gtest.h>

#include "common/image.hh"
#include "nn/tensor.hh"

namespace {

using ad::Image;
using ad::nn::Tensor;

TEST(Tensor, ShapeAndAccess)
{
    Tensor t(3, 4, 5);
    EXPECT_EQ(t.channels(), 3);
    EXPECT_EQ(t.height(), 4);
    EXPECT_EQ(t.width(), 5);
    EXPECT_EQ(t.size(), 60u);
    EXPECT_EQ(t.bytes(), 240u);
    t.at(2, 3, 4) = 1.5f;
    EXPECT_FLOAT_EQ(t.at(2, 3, 4), 1.5f);
    EXPECT_FLOAT_EQ(t.at(0, 0, 0), 0.0f);
    EXPECT_EQ(t.shapeString(), "3x4x5");
}

TEST(Tensor, ChannelPlanePointers)
{
    Tensor t(2, 2, 2);
    t.at(1, 0, 0) = 9.0f;
    EXPECT_FLOAT_EQ(t.channel(1)[0], 9.0f);
    EXPECT_EQ(t.channel(1) - t.channel(0), 4);
}

TEST(Tensor, FillAndEmpty)
{
    Tensor t(1, 2, 2);
    t.fill(3.0f);
    for (int y = 0; y < 2; ++y)
        for (int x = 0; x < 2; ++x)
            EXPECT_FLOAT_EQ(t.at(0, y, x), 3.0f);
    EXPECT_TRUE(Tensor().empty());
    EXPECT_FALSE(t.empty());
}

TEST(Tensor, FromImageNormalizes)
{
    Image img(3, 2, 0);
    img.at(0, 0) = 255;
    img.at(2, 1) = 51;
    Tensor t;
    t.assignFromImage(img);
    EXPECT_EQ(t.channels(), 1);
    EXPECT_EQ(t.height(), 2);
    EXPECT_EQ(t.width(), 3);
    EXPECT_FLOAT_EQ(t.at(0, 0, 0), 1.0f);
    EXPECT_FLOAT_EQ(t.at(0, 1, 2), 0.2f);
    EXPECT_FLOAT_EQ(t.at(0, 0, 1), 0.0f);
}

TEST(Tensor, ConcatChannelsStacks)
{
    Tensor a(2, 2, 2);
    Tensor b(1, 2, 2);
    a.fill(1.0f);
    b.fill(2.0f);
    const Tensor c = Tensor::concatChannels(a, b);
    EXPECT_EQ(c.channels(), 3);
    EXPECT_FLOAT_EQ(c.at(0, 1, 1), 1.0f);
    EXPECT_FLOAT_EQ(c.at(1, 0, 0), 1.0f);
    EXPECT_FLOAT_EQ(c.at(2, 1, 0), 2.0f);
}

} // namespace
