#include "dnn/model_io.hh"

#include <array>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <ostream>
#include <sstream>
#include <variant>
#include <vector>

#include "util/json.hh"
#include "util/json_parse.hh"

namespace sonic::dnn
{

namespace
{

// --- f64 <-> hex ----------------------------------------------------

u64
bitsOf(f64 v)
{
    u64 bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    return bits;
}

f64
f64Of(u64 bits)
{
    f64 v = 0.0;
    std::memcpy(&v, &bits, sizeof v);
    return v;
}

void
appendHex64(std::string &out, u64 bits)
{
    static const char digits[] = "0123456789abcdef";
    for (int shift = 60; shift >= 0; shift -= 4)
        out.push_back(digits[(bits >> shift) & 0xf]);
}

std::string
hexBlob(const std::vector<f64> &values)
{
    std::string out;
    out.reserve(values.size() * 16);
    for (f64 v : values)
        appendHex64(out, bitsOf(v));
    return out;
}

// --- f64 <-> base64 (the v2 blob encoding) --------------------------

constexpr char kBase64Digits[] =
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
    "0123456789+/";

/** Base64 of the raw little-endian f64 bytes (v2 blobs). */
std::string
base64Blob(const std::vector<f64> &values)
{
    std::string bytes;
    bytes.reserve(values.size() * 8);
    for (f64 v : values) {
        const u64 bits = bitsOf(v);
        for (u32 i = 0; i < 8; ++i)
            bytes.push_back(
                static_cast<char>((bits >> (8 * i)) & 0xff));
    }
    std::string out;
    out.reserve((bytes.size() + 2) / 3 * 4);
    u64 i = 0;
    for (; i + 3 <= bytes.size(); i += 3) {
        const u32 n = (static_cast<u32>(
                           static_cast<unsigned char>(bytes[i]))
                       << 16)
            | (static_cast<u32>(
                   static_cast<unsigned char>(bytes[i + 1]))
               << 8)
            | static_cast<u32>(
                  static_cast<unsigned char>(bytes[i + 2]));
        out.push_back(kBase64Digits[(n >> 18) & 0x3f]);
        out.push_back(kBase64Digits[(n >> 12) & 0x3f]);
        out.push_back(kBase64Digits[(n >> 6) & 0x3f]);
        out.push_back(kBase64Digits[n & 0x3f]);
    }
    const u64 rest = bytes.size() - i;
    if (rest == 1) {
        const u32 n = static_cast<u32>(
                          static_cast<unsigned char>(bytes[i]))
            << 16;
        out.push_back(kBase64Digits[(n >> 18) & 0x3f]);
        out.push_back(kBase64Digits[(n >> 12) & 0x3f]);
        out.push_back('=');
        out.push_back('=');
    } else if (rest == 2) {
        const u32 n = (static_cast<u32>(
                           static_cast<unsigned char>(bytes[i]))
                       << 16)
            | (static_cast<u32>(
                   static_cast<unsigned char>(bytes[i + 1]))
               << 8);
        out.push_back(kBase64Digits[(n >> 18) & 0x3f]);
        out.push_back(kBase64Digits[(n >> 12) & 0x3f]);
        out.push_back(kBase64Digits[(n >> 6) & 0x3f]);
        out.push_back('=');
    }
    return out;
}

int
base64Value(char c)
{
    if (c >= 'A' && c <= 'Z')
        return c - 'A';
    if (c >= 'a' && c <= 'z')
        return c - 'a' + 26;
    if (c >= '0' && c <= '9')
        return c - '0' + 52;
    if (c == '+')
        return 62;
    if (c == '/')
        return 63;
    return -1;
}

bool
parseBase64Blob(const std::string &text, std::vector<f64> *out,
                std::string *error, const std::string &what)
{
    out->clear();
    if (text.empty())
        return true;
    if (text.size() % 4 != 0) {
        *error = what + ": base64 blob length "
               + std::to_string(text.size())
               + " is not a multiple of 4";
        return false;
    }
    std::string bytes;
    bytes.reserve(text.size() / 4 * 3);
    for (u64 i = 0; i < text.size(); i += 4) {
        u32 pad = 0;
        u32 n = 0;
        for (u32 j = 0; j < 4; ++j) {
            const char c = text[i + j];
            if (c == '=') {
                // Padding is only legal as the last one or two
                // characters of the final group.
                if (i + 4 != text.size() || j < 2) {
                    *error = what + ": misplaced base64 padding";
                    return false;
                }
                ++pad;
                n <<= 6;
                continue;
            }
            if (pad > 0) {
                *error = what + ": base64 digit after padding";
                return false;
            }
            const int v = base64Value(c);
            if (v < 0) {
                *error = what + ": invalid base64 character '"
                       + std::string(1, c) + "'";
                return false;
            }
            n = (n << 6) | static_cast<u32>(v);
        }
        bytes.push_back(static_cast<char>((n >> 16) & 0xff));
        if (pad < 2)
            bytes.push_back(static_cast<char>((n >> 8) & 0xff));
        if (pad < 1)
            bytes.push_back(static_cast<char>(n & 0xff));
    }
    if (bytes.size() % 8 != 0) {
        *error = what + ": blob decodes to "
               + std::to_string(bytes.size())
               + " bytes, not a whole number of f64 values";
        return false;
    }
    out->reserve(bytes.size() / 8);
    for (u64 i = 0; i < bytes.size(); i += 8) {
        u64 bits = 0;
        for (u32 j = 0; j < 8; ++j)
            bits |= static_cast<u64>(
                        static_cast<unsigned char>(bytes[i + j]))
                 << (8 * j);
        out->push_back(f64Of(bits));
    }
    return true;
}

/** Which blob encoding the document's version selects. */
enum class BlobCodec
{
    Hex,    ///< v1: 16 hex digits per f64, big-endian bit image
    Base64  ///< v2: base64 of raw little-endian f64 bytes
};

int
hexDigit(char c)
{
    if (c >= '0' && c <= '9')
        return c - '0';
    if (c >= 'a' && c <= 'f')
        return c - 'a' + 10;
    if (c >= 'A' && c <= 'F')
        return c - 'A' + 10;
    return -1;
}

bool
parseHexBlob(const std::string &hex, std::vector<f64> *out,
             std::string *error, const std::string &what)
{
    if (hex.size() % 16 != 0) {
        *error = what + ": hex blob length " + std::to_string(hex.size())
               + " is not a multiple of 16";
        return false;
    }
    out->clear();
    out->reserve(hex.size() / 16);
    for (u64 i = 0; i < hex.size(); i += 16) {
        u64 bits = 0;
        for (u64 j = 0; j < 16; ++j) {
            const int d = hexDigit(hex[i + j]);
            if (d < 0) {
                *error = what + ": invalid hex digit '" + hex[i + j]
                       + "'";
                return false;
            }
            bits = (bits << 4) | static_cast<u64>(d);
        }
        out->push_back(f64Of(bits));
    }
    return true;
}

// --- JSON document access -------------------------------------------
//
// The strict value parser lives in util/json_parse (shared with the
// deployment-plan format); the model-specific typed accessors below
// build on its JsonValue.

using jsonp::JsonArray;
using jsonp::JsonObject;
using jsonp::JsonValue;
using jsonp::getBool;
using jsonp::getString;
using jsonp::getU32;

bool
getBlob(const JsonObject &obj, const char *key, BlobCodec codec,
        std::vector<f64> *out, std::string *error,
        const std::string &ctx)
{
    auto it = obj.find(key);
    if (it == obj.end() || it->second.string() == nullptr) {
        *error = ctx + ": missing or non-string blob \"" + key + "\"";
        return false;
    }
    const std::string what = ctx + " \"" + key + "\"";
    return codec == BlobCodec::Hex
        ? parseHexBlob(*it->second.string(), out, error, what)
        : parseBase64Blob(*it->second.string(), out, error, what);
}

bool
getSizedBlob(const JsonObject &obj, const char *key, BlobCodec codec,
             u64 expected, std::vector<f64> *out, std::string *error,
             const std::string &ctx)
{
    if (!getBlob(obj, key, codec, out, error, ctx))
        return false;
    if (out->size() != expected) {
        *error = ctx + " \"" + key + "\": blob holds "
               + std::to_string(out->size()) + " values but the "
               + "declared dimensions need " + std::to_string(expected);
        return false;
    }
    return true;
}

// --- Layer emit / parse ---------------------------------------------

const char *
kindOf(const LayerOp &op)
{
    if (std::holds_alternative<FactoredConvLayer>(op))
        return "factored-conv";
    if (std::holds_alternative<SparseConvLayer>(op))
        return "sparse-conv";
    if (std::holds_alternative<DenseConvLayer>(op))
        return "dense-conv";
    if (std::holds_alternative<DenseFcLayer>(op))
        return "dense-fc";
    return "sparse-fc";
}

using BlobEncoder = std::string (*)(const std::vector<f64> &);

void
emitLayer(json::Writer &w, const LayerSpec &layer, BlobEncoder blob)
{
    w.br(4).beginObject().field("name", layer.name)
        .field("kind", kindOf(layer.op))
        .field("relu", layer.reluAfter).field("pool", layer.poolAfter);
    const auto bank = [&](const tensor::FilterBank &f) {
        w.field("oc", f.outChannels).field("ic", f.inChannels)
            .field("kh", f.kh).field("kw", f.kw)
            .br(5).field("data", blob(f.data));
    };
    const auto matrix = [&](const auto &m) {
        w.field("rows", m.rows()).field("cols", m.cols())
            .br(5).field("data", blob(m.data()));
    };
    if (const auto *f = std::get_if<FactoredConvLayer>(&layer.op))
        w.br(5).field("mix", blob(f->mix)).field("col", blob(f->col))
            .field("row", blob(f->row)).field("scale", blob(f->scale));
    else if (const auto *s = std::get_if<SparseConvLayer>(&layer.op))
        bank(s->filters);
    else if (const auto *d = std::get_if<DenseConvLayer>(&layer.op))
        bank(d->filters);
    else if (const auto *fc = std::get_if<DenseFcLayer>(&layer.op))
        matrix(fc->weights);
    else if (const auto *sfc = std::get_if<SparseFcLayer>(&layer.op))
        matrix(sfc->weights);
    w.end();
}

void
emitModel(std::ostream &os, const NetworkSpec &net, u32 version,
          BlobEncoder blob)
{
    json::Writer w(os);
    w.beginObject().field("format", "sonic-model").field("version", version)
        .br(1).field("name", net.name)
        .br(1).key("input").array(std::array{net.input.c, net.input.h,
                                             net.input.w})
        .field("numClasses", net.numClasses)
        .br(1).key("layers").beginArray();
    for (const auto &layer : net.layers)
        emitLayer(w, layer, blob);
    w.br(1).end().end();
}

bool
parseFilterBank(const JsonObject &obj, BlobCodec codec,
                tensor::FilterBank *bank, std::string *error,
                const std::string &ctx)
{
    u32 oc = 0, ic = 0, kh = 0, kw = 0;
    if (!getU32(obj, "oc", &oc, error, ctx)
        || !getU32(obj, "ic", &ic, error, ctx)
        || !getU32(obj, "kh", &kh, error, ctx)
        || !getU32(obj, "kw", &kw, error, ctx))
        return false;
    if (oc == 0 || ic == 0 || kh == 0 || kw == 0) {
        *error = ctx + ": zero filter-bank dimension";
        return false;
    }
    std::vector<f64> data;
    if (!getSizedBlob(obj, "data", codec, u64{oc} * ic * kh * kw,
                      &data, error, ctx))
        return false;
    *bank = tensor::FilterBank(oc, ic, kh, kw);
    bank->data = std::move(data);
    return true;
}

bool
parseMatrix(const JsonObject &obj, BlobCodec codec, tensor::Matrix *m,
            std::string *error, const std::string &ctx)
{
    u32 rows = 0, cols = 0;
    if (!getU32(obj, "rows", &rows, error, ctx)
        || !getU32(obj, "cols", &cols, error, ctx))
        return false;
    if (rows == 0 || cols == 0) {
        *error = ctx + ": zero matrix dimension";
        return false;
    }
    std::vector<f64> data;
    if (!getSizedBlob(obj, "data", codec, u64{rows} * cols, &data,
                      error, ctx))
        return false;
    *m = tensor::Matrix(rows, cols);
    m->data() = std::move(data);
    return true;
}

bool
parseLayer(const JsonValue &value, BlobCodec codec, LayerSpec *layer,
           std::string *error, u64 index)
{
    const std::string ctx = "layer " + std::to_string(index);
    const JsonObject *obj = value.object();
    if (obj == nullptr) {
        *error = ctx + ": not an object";
        return false;
    }
    std::string kind;
    if (!getString(*obj, "name", &layer->name, error, ctx)
        || !getString(*obj, "kind", &kind, error, ctx)
        || !getBool(*obj, "relu", &layer->reluAfter, error, ctx)
        || !getBool(*obj, "pool", &layer->poolAfter, error, ctx))
        return false;

    if (kind == "factored-conv") {
        FactoredConvLayer f;
        if (!getBlob(*obj, "mix", codec, &f.mix, error, ctx)
            || !getBlob(*obj, "col", codec, &f.col, error, ctx)
            || !getBlob(*obj, "row", codec, &f.row, error, ctx)
            || !getBlob(*obj, "scale", codec, &f.scale, error, ctx))
            return false;
        if (f.scale.empty()) {
            *error = ctx + ": factored conv needs non-empty scales";
            return false;
        }
        layer->op = std::move(f);
    } else if (kind == "sparse-conv" || kind == "dense-conv") {
        tensor::FilterBank bank;
        if (!parseFilterBank(*obj, codec, &bank, error, ctx))
            return false;
        if (kind == "sparse-conv")
            layer->op = SparseConvLayer{std::move(bank)};
        else
            layer->op = DenseConvLayer{std::move(bank)};
    } else if (kind == "dense-fc" || kind == "sparse-fc") {
        tensor::Matrix m;
        if (!parseMatrix(*obj, codec, &m, error, ctx))
            return false;
        if (kind == "dense-fc")
            layer->op = DenseFcLayer{std::move(m)};
        else
            layer->op = SparseFcLayer{std::move(m)};
    } else {
        *error = ctx + ": unknown layer kind \"" + kind + "\"";
        return false;
    }
    return true;
}

/** Walk the layer shapes exactly like the forward pass would, so a
 * dimensionally inconsistent file is rejected at load, not at run. */
bool
validateShapes(const NetworkSpec &net, std::string *error)
{
    ActShape shape = net.input;
    for (u64 li = 0; li < net.layers.size(); ++li) {
        const auto &layer = net.layers[li];
        const std::string ctx = "layer " + std::to_string(li) + " (\""
                              + layer.name + "\")";
        if (const auto *f = std::get_if<FactoredConvLayer>(&layer.op)) {
            if (!f->col.empty() && f->col.size() > shape.h) {
                *error = ctx + ": column kernel exceeds map height";
                return false;
            }
            if (!f->row.empty() && f->row.size() > shape.w) {
                *error = ctx + ": row kernel exceeds map width";
                return false;
            }
            if (!f->mix.empty() && f->mix.size() != shape.c) {
                *error = ctx + ": channel mix size mismatch";
                return false;
            }
            if (f->mix.empty() && shape.c != 1) {
                *error = ctx + ": multi-channel input needs a mix stage";
                return false;
            }
        } else if (const auto *s =
                       std::get_if<SparseConvLayer>(&layer.op)) {
            if (s->filters.inChannels != shape.c
                || s->filters.kh > shape.h || s->filters.kw > shape.w) {
                *error = ctx + ": filter bank does not fit the "
                       + std::to_string(shape.c) + "x"
                       + std::to_string(shape.h) + "x"
                       + std::to_string(shape.w) + " input";
                return false;
            }
        } else if (const auto *d =
                       std::get_if<DenseConvLayer>(&layer.op)) {
            if (d->filters.inChannels != shape.c
                || d->filters.kh > shape.h || d->filters.kw > shape.w) {
                *error = ctx + ": filter bank does not fit the input";
                return false;
            }
        } else if (const auto *fc =
                       std::get_if<DenseFcLayer>(&layer.op)) {
            if (fc->weights.cols() != shape.elems()) {
                *error = ctx + ": FC expects "
                       + std::to_string(fc->weights.cols())
                       + " inputs, activation flattens to "
                       + std::to_string(shape.elems());
                return false;
            }
        } else if (const auto *sfc =
                       std::get_if<SparseFcLayer>(&layer.op)) {
            if (sfc->weights.cols() != shape.elems()) {
                *error = ctx + ": FC expects "
                       + std::to_string(sfc->weights.cols())
                       + " inputs, activation flattens to "
                       + std::to_string(shape.elems());
                return false;
            }
        }
        shape = opOutputShape(layer.op, shape);
        if (layer.poolAfter) {
            shape.h /= 2;
            shape.w /= 2;
        }
        if (shape.elems() == 0) {
            *error = ctx + ": produces an empty activation";
            return false;
        }
    }
    if (shape.elems() != net.numClasses) {
        *error = "final activation has " + std::to_string(shape.elems())
               + " elements but numClasses is "
               + std::to_string(net.numClasses);
        return false;
    }
    return true;
}

} // namespace

void
saveModel(const NetworkSpec &net, std::ostream &os)
{
    emitModel(os, net, kModelFormatVersion, base64Blob);
}

namespace testhooks
{

std::string
modelJsonV1(const NetworkSpec &net)
{
    std::ostringstream os;
    emitModel(os, net, 1, hexBlob);
    return os.str();
}

} // namespace testhooks

std::string
modelJson(const NetworkSpec &net)
{
    std::ostringstream os;
    saveModel(net, os);
    return os.str();
}

bool
saveModelFile(const NetworkSpec &net, const std::string &path,
              std::string *error)
{
    std::ofstream out(path);
    if (!out) {
        if (error != nullptr)
            *error = "cannot open " + path + " for writing";
        return false;
    }
    saveModel(net, out);
    out.flush();
    if (!out) {
        if (error != nullptr)
            *error = "write to " + path + " failed";
        return false;
    }
    return true;
}

std::optional<NetworkSpec>
parseModel(const std::string &text, std::string *error)
{
    std::string scratch;
    std::string &err = error != nullptr ? *error : scratch;
    err.clear();

    JsonValue root;
    if (!jsonp::parseJson(text, &root, &err))
        return std::nullopt;
    const JsonObject *obj = root.object();
    if (obj == nullptr) {
        err = "model document is not a JSON object";
        return std::nullopt;
    }

    std::string format;
    if (!getString(*obj, "format", &format, &err, "document"))
        return std::nullopt;
    if (format != "sonic-model") {
        err = "not a sonic-model document (format \"" + format + "\")";
        return std::nullopt;
    }
    u32 version = 0;
    if (!getU32(*obj, "version", &version, &err, "document"))
        return std::nullopt;
    if (version < kOldestReadableModelVersion
        || version > kModelFormatVersion) {
        err = "unsupported model format version "
            + std::to_string(version) + " (this build reads versions "
            + std::to_string(kOldestReadableModelVersion) + " through "
            + std::to_string(kModelFormatVersion) + ")";
        return std::nullopt;
    }
    const BlobCodec codec =
        version == 1 ? BlobCodec::Hex : BlobCodec::Base64;

    NetworkSpec net;
    if (!getString(*obj, "name", &net.name, &err, "document"))
        return std::nullopt;
    if (net.name.empty()) {
        err = "model name must be non-empty";
        return std::nullopt;
    }

    auto input = obj->find("input");
    if (input == obj->end() || input->second.array() == nullptr
        || input->second.array()->size() != 3) {
        err = "document: \"input\" must be a [c, h, w] array";
        return std::nullopt;
    }
    u32 dims[3] = {0, 0, 0};
    for (u32 i = 0; i < 3; ++i) {
        const f64 *n = (*input->second.array())[i].number();
        if (n == nullptr || *n <= 0 || *n > 65535
            || *n != static_cast<f64>(static_cast<u32>(*n))) {
            err = "document: input dimension " + std::to_string(i)
                + " is not a positive integer";
            return std::nullopt;
        }
        dims[i] = static_cast<u32>(*n);
    }
    net.input = {dims[0], dims[1], dims[2]};

    if (!getU32(*obj, "numClasses", &net.numClasses, &err, "document"))
        return std::nullopt;
    if (net.numClasses == 0) {
        err = "document: numClasses must be positive";
        return std::nullopt;
    }

    auto layers = obj->find("layers");
    if (layers == obj->end() || layers->second.array() == nullptr) {
        err = "document: missing \"layers\" array";
        return std::nullopt;
    }
    if (layers->second.array()->empty()) {
        err = "document: \"layers\" must be non-empty";
        return std::nullopt;
    }
    for (u64 li = 0; li < layers->second.array()->size(); ++li) {
        LayerSpec layer;
        if (!parseLayer((*layers->second.array())[li], codec, &layer,
                        &err, li))
            return std::nullopt;
        net.layers.push_back(std::move(layer));
    }

    if (!validateShapes(net, &err))
        return std::nullopt;
    return net;
}

std::optional<NetworkSpec>
loadModel(std::istream &is, std::string *error)
{
    std::ostringstream buffer;
    buffer << is.rdbuf();
    return parseModel(buffer.str(), error);
}

std::optional<NetworkSpec>
loadModelFile(const std::string &path, std::string *error)
{
    std::ifstream in(path);
    if (!in) {
        if (error != nullptr)
            *error = "cannot read " + path;
        return std::nullopt;
    }
    return loadModel(in, error);
}

bool
loadModelIntoZoo(const std::string &path, ModelZoo &zoo,
                 std::string *error)
{
    auto net = loadModelFile(path, error);
    if (!net)
        return false;
    ModelMeta meta;
    meta.family = "loaded";
    meta.description = "loaded from " + path;
    std::string name = net->name; // copy before the spec is moved from
    if (zoo.tryAdd(name, meta, std::move(*net)))
        return true;
    if (error != nullptr)
        *error = "model '" + name + "' is already registered in the zoo";
    return false;
}

} // namespace sonic::dnn
