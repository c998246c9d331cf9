#include "gaussian/io.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "math/sh.hpp"
#include "util/logging.hpp"

namespace clm {

namespace {

constexpr char kMagic[4] = {'C', 'L', 'M', 'G'};
constexpr uint32_t kVersion = 1;

struct FileCloser
{
    void operator()(std::FILE *f) const { std::fclose(f); }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

void
writeBytes(std::FILE *f, const void *data, size_t bytes)
{
    if (std::fwrite(data, 1, bytes, f) != bytes)
        CLM_FATAL("short write while saving model");
}

void
readBytes(std::FILE *f, void *data, size_t bytes)
{
    if (std::fread(data, 1, bytes, f) != bytes)
        CLM_FATAL("short read while loading model (truncated file?)");
}

} // namespace

void
saveModel(const GaussianModel &model, const std::string &path)
{
    FilePtr f(std::fopen(path.c_str(), "wb"));
    if (!f)
        CLM_FATAL("cannot open ", path, " for writing");
    writeBytes(f.get(), kMagic, 4);
    writeBytes(f.get(), &kVersion, sizeof(kVersion));
    uint64_t count = model.size();
    writeBytes(f.get(), &count, sizeof(count));

    // Row-wise packed records keep the writer trivially versionable.
    std::vector<float> row(kParamsPerGaussian);
    for (size_t i = 0; i < model.size(); ++i) {
        model.packCritical(i, row.data());
        model.packNonCritical(i, row.data() + kCriticalDim);
        writeBytes(f.get(), row.data(),
                   kParamsPerGaussian * sizeof(float));
    }
}

GaussianModel
loadModel(const std::string &path)
{
    FilePtr f(std::fopen(path.c_str(), "rb"));
    if (!f)
        CLM_FATAL("cannot open ", path, " for reading");
    char magic[4];
    readBytes(f.get(), magic, 4);
    if (std::memcmp(magic, kMagic, 4) != 0)
        CLM_FATAL(path, " is not a CLM checkpoint");
    uint32_t version = 0;
    readBytes(f.get(), &version, sizeof(version));
    if (version != kVersion)
        CLM_FATAL("unsupported checkpoint version ", version);
    uint64_t count = 0;
    readBytes(f.get(), &count, sizeof(count));
    // The rows the header claims must be the bytes the file holds,
    // checked before the model allocates them: a corrupt or hostile
    // count must not request terabytes.
    const long rows_at = std::ftell(f.get());
    if (rows_at < 0 || std::fseek(f.get(), 0, SEEK_END) != 0)
        CLM_FATAL("cannot size ", path);
    const long file_end = std::ftell(f.get());
    if (file_end < rows_at || std::fseek(f.get(), rows_at, SEEK_SET) != 0)
        CLM_FATAL("cannot size ", path);
    const uint64_t row_bytes = kParamsPerGaussian * sizeof(float);
    const uint64_t left = static_cast<uint64_t>(file_end - rows_at);
    if (count > left / row_bytes || count * row_bytes != left)
        CLM_FATAL(path, " claims ", count, " Gaussians but holds ", left,
                  " bytes of rows (", row_bytes, " per Gaussian)");

    GaussianModel model(count);
    std::vector<float> row(kParamsPerGaussian);
    for (size_t i = 0; i < count; ++i) {
        readBytes(f.get(), row.data(),
                  kParamsPerGaussian * sizeof(float));
        model.unpackCritical(i, row.data());
        model.unpackNonCritical(i, row.data() + kCriticalDim);
    }
    return model;
}

void
exportPly(const GaussianModel &model, const std::string &path)
{
    FilePtr f(std::fopen(path.c_str(), "w"));
    if (!f)
        CLM_FATAL("cannot open ", path, " for writing");
    std::fprintf(f.get(),
                 "ply\nformat ascii 1.0\nelement vertex %zu\n"
                 "property float x\nproperty float y\nproperty float z\n"
                 "property uchar red\nproperty uchar green\n"
                 "property uchar blue\nproperty float opacity\n"
                 "end_header\n",
                 model.size());
    constexpr float kY0 = 0.28209479177387814f;
    for (size_t i = 0; i < model.size(); ++i) {
        const Vec3 &p = model.position(i);
        auto channel = [&](int c) {
            float v = 0.5f + kY0 * model.sh(i)[c];
            v = std::clamp(v, 0.0f, 1.0f);
            return static_cast<int>(v * 255.0f + 0.5f);
        };
        std::fprintf(f.get(), "%g %g %g %d %d %d %g\n", p.x, p.y, p.z,
                     channel(0), channel(1), channel(2),
                     model.worldOpacity(i));
    }
}

} // namespace clm
