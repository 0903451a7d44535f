"""YOLO's C modules in MiniC, plus the real-scenario test suite.

This is the Figure 5 experiment substrate: the files mirror darknet's
object-detection sources (``activations.c``, ``gemm.c``, ``blas.c``, ...)
at reduced scale, and :func:`scenario_suite` provides the "several
real-scenario tests" the paper runs — plain inference traffic, *not* a
coverage-directed test suite.  Coverage gaps therefore arise for the same
reasons the paper observes: inference only uses the leaky/linear
activations, only the NN GEMM variant, only stride-1 BLAS fast paths, and
never the grouped-convolution or training paths.

Each file is a self-contained MiniC program (darknet-style ``static``
helpers are duplicated rather than cross-included), so per-file coverage
is measured exactly as RapiCover reports it.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from ..coverage.report import CoverageCampaign
from ..coverage.runner import CoverageRunner, TestVector

ACTIVATIONS_SOURCE = """
float activate(float x, int type) {
  switch (type) {
    case 0:
      return x;
    case 1:
      return 1.0f / (1.0f + expf(-x));
    case 2:
      return x > 0.0f ? x : 0.1f * x;
    case 3:
      return x > 0.0f ? x : 0.0f;
    case 4:
      return tanhf(x);
    case 5:
      if (x >= 0.0f) {
        return x;
      }
      return expf(x) - 1.0f;
    default:
      return x;
  }
}

float gradient(float x, int type) {
  switch (type) {
    case 0:
      return 1.0f;
    case 1: {
      float s = 1.0f / (1.0f + expf(-x));
      return s * (1.0f - s);
    }
    case 2:
      return x > 0.0f ? 1.0f : 0.1f;
    case 3:
      return x > 0.0f ? 1.0f : 0.0f;
    case 4: {
      float t = tanhf(x);
      return 1.0f - t * t;
    }
    default:
      return 1.0f;
  }
}

void activate_array(float *x, int n, int type) {
  for (int i = 0; i < n; i++) {
    x[i] = activate(x[i], type);
  }
}
"""

GEMM_SOURCE = """
void gemm_cpu(int ta, int tb, int m, int n, int k, float alpha, float *a,
              int lda, float *b, int ldb, float beta, float *c, int ldc) {
  if (beta != 1.0f) {
    for (int bi = 0; bi < m; bi++) {
      for (int bj = 0; bj < n; bj++) {
        c[bi * ldc + bj] *= beta;
      }
    }
  }
  if (ta == 0 && tb == 0) {
    for (int i = 0; i < m; i++) {
      for (int p = 0; p < k; p++) {
        float apart = alpha * a[i * lda + p];
        for (int j = 0; j < n; j++) {
          c[i * ldc + j] += apart * b[p * ldb + j];
        }
      }
    }
  } else if (ta == 1 && tb == 0) {
    for (int i = 0; i < m; i++) {
      for (int p = 0; p < k; p++) {
        float apart = alpha * a[p * lda + i];
        int j = 0;
        int limit = n - 3;
        while (j < limit) {
          c[i * ldc + j] += apart * b[p * ldb + j];
          c[i * ldc + j + 1] += apart * b[p * ldb + j + 1];
          c[i * ldc + j + 2] += apart * b[p * ldb + j + 2];
          c[i * ldc + j + 3] += apart * b[p * ldb + j + 3];
          j += 4;
        }
        while (j < n) {
          c[i * ldc + j] += apart * b[p * ldb + j];
          j++;
        }
      }
    }
  } else if (ta == 0 && tb == 1) {
    for (int i = 0; i < m; i++) {
      for (int j = 0; j < n; j++) {
        float sum = 0.0f;
        int p = 0;
        int limit = k - 3;
        while (p < limit) {
          sum += alpha * a[i * lda + p] * b[j * ldb + p];
          sum += alpha * a[i * lda + p + 1] * b[j * ldb + p + 1];
          sum += alpha * a[i * lda + p + 2] * b[j * ldb + p + 2];
          sum += alpha * a[i * lda + p + 3] * b[j * ldb + p + 3];
          p += 4;
        }
        while (p < k) {
          sum += alpha * a[i * lda + p] * b[j * ldb + p];
          p++;
        }
        c[i * ldc + j] += sum;
      }
    }
  } else {
    for (int i = 0; i < m; i++) {
      for (int j = 0; j < n; j++) {
        float sum = 0.0f;
        float partial0 = 0.0f;
        float partial1 = 0.0f;
        int p = 0;
        int pairs = k - 1;
        while (p < pairs) {
          partial0 += alpha * a[p * lda + i] * b[j * ldb + p];
          partial1 += alpha * a[(p + 1) * lda + i] * b[j * ldb + p + 1];
          p += 2;
        }
        while (p < k) {
          partial0 += alpha * a[p * lda + i] * b[j * ldb + p];
          p++;
        }
        sum = partial0 + partial1;
        c[i * ldc + j] += sum;
      }
    }
  }
}

int gemm_flops(int m, int n, int k, int bias_term) {
  int flops = 2 * m * n * k;
  if (bias_term != 0) {
    flops = flops + m * n;
  }
  if (flops < 0) {
    flops = 0;
  }
  return flops;
}
"""

BLAS_SOURCE = """
void fill_cpu(int n, float alpha, float *x, int incx) {
  for (int i = 0; i < n; i++) {
    x[i * incx] = alpha;
  }
}

void copy_cpu(int n, float *x, int incx, float *y, int incy) {
  if (incx == 1 && incy == 1) {
    for (int i = 0; i < n; i++) {
      y[i] = x[i];
    }
  } else {
    for (int i = 0; i < n; i++) {
      y[i * incy] = x[i * incx];
    }
  }
}

void axpy_cpu(int n, float a, float *x, int incx, float *y, int incy) {
  if (incx == 1 && incy == 1) {
    for (int i = 0; i < n; i++) {
      y[i] += a * x[i];
    }
  } else {
    for (int i = 0; i < n; i++) {
      y[i * incy] += a * x[i * incx];
    }
  }
}

void scal_cpu(int n, float alpha, float *x, int incx) {
  for (int i = 0; i < n; i++) {
    x[i * incx] *= alpha;
  }
}

void mean_cpu(float *x, int batch, int filters, int spatial, float *mean) {
  float scale = 1.0f / (batch * spatial);
  for (int f = 0; f < filters; f++) {
    mean[f] = 0.0f;
    for (int b = 0; b < batch; b++) {
      for (int s = 0; s < spatial; s++) {
        mean[f] += x[(b * filters + f) * spatial + s];
      }
    }
    mean[f] *= scale;
  }
}

void normalize_cpu(float *x, float *mean, float *variance, int batch,
                   int filters, int spatial) {
  for (int b = 0; b < batch; b++) {
    for (int f = 0; f < filters; f++) {
      float deviation = sqrtf(variance[f]) + 0.000001f;
      for (int s = 0; s < spatial; s++) {
        int index = (b * filters + f) * spatial + s;
        x[index] = (x[index] - mean[f]) / deviation;
      }
    }
  }
}
"""

BOX_SOURCE = """
float overlap(float x1, float w1, float x2, float w2) {
  float l1 = x1 - w1 / 2.0f;
  float l2 = x2 - w2 / 2.0f;
  float left = l1 > l2 ? l1 : l2;
  float r1 = x1 + w1 / 2.0f;
  float r2 = x2 + w2 / 2.0f;
  float right = r1 < r2 ? r1 : r2;
  return right - left;
}

float box_intersection(float *a, float *b) {
  float w = overlap(a[0], a[2], b[0], b[2]);
  float h = overlap(a[1], a[3], b[1], b[3]);
  if (w < 0.0f || h < 0.0f) {
    return 0.0f;
  }
  return w * h;
}

float box_union(float *a, float *b) {
  float i = box_intersection(a, b);
  return a[2] * a[3] + b[2] * b[3] - i;
}

float box_iou(float *a, float *b) {
  float u = box_union(a, b);
  if (u <= 0.0f) {
    return 0.0f;
  }
  return box_intersection(a, b) / u;
}

int do_nms(float *boxes, float *scores, int total, float thresh) {
  int kept = total;
  for (int i = 0; i < total; i++) {
    if (scores[i] <= 0.0f) {
      continue;
    }
    for (int j = i + 1; j < total; j++) {
      if (scores[j] <= 0.0f) {
        continue;
      }
      float a[4];
      float b[4];
      for (int p = 0; p < 4; p++) {
        a[p] = boxes[i * 4 + p];
        b[p] = boxes[j * 4 + p];
      }
      if (box_iou(a, b) > thresh) {
        if (scores[i] >= scores[j]) {
          scores[j] = 0.0f;
        } else {
          scores[i] = 0.0f;
        }
        kept--;
      }
    }
  }
  return kept;
}
"""

IM2COL_SOURCE = """
float im2col_get_pixel(float *im, int height, int width, int row, int col,
                       int channel, int pad) {
  row -= pad;
  col -= pad;
  if (row < 0 || col < 0 || row >= height || col >= width) {
    return 0.0f;
  }
  return im[col + width * (row + height * channel)];
}

void im2col_cpu(float *im, int channels, int height, int width, int ksize,
                int stride, int pad, float *col) {
  int out_h = (height + 2 * pad - ksize) / stride + 1;
  int out_w = (width + 2 * pad - ksize) / stride + 1;
  int cols = channels * ksize * ksize;
  for (int c = 0; c < cols; c++) {
    int kx = c % ksize;
    int ky = (c / ksize) % ksize;
    int ch = c / (ksize * ksize);
    for (int y = 0; y < out_h; y++) {
      for (int x = 0; x < out_w; x++) {
        int row = ky + y * stride;
        int column = kx + x * stride;
        col[(c * out_h + y) * out_w + x] =
            im2col_get_pixel(im, height, width, row, column, ch, pad);
      }
    }
  }
}
"""

MAXPOOL_SOURCE = """
void forward_maxpool(float *input, float *output, int in_h, int in_w,
                     int channels, int size, int stride, int pad) {
  int out_h = (in_h + 2 * pad - size) / stride + 1;
  int out_w = (in_w + 2 * pad - size) / stride + 1;
  for (int ch = 0; ch < channels; ch++) {
    for (int oh = 0; oh < out_h; oh++) {
      for (int ow = 0; ow < out_w; ow++) {
        float best = -3.4e38f;
        for (int ky = 0; ky < size; ky++) {
          for (int kx = 0; kx < size; kx++) {
            int iy = oh * stride + ky - pad;
            int ix = ow * stride + kx - pad;
            if (iy >= 0 && iy < in_h && ix >= 0 && ix < in_w) {
              float value = input[(ch * in_h + iy) * in_w + ix];
              if (value > best) {
                best = value;
              }
            }
          }
        }
        output[(ch * out_h + oh) * out_w + ow] = best;
      }
    }
  }
}
"""

REGION_SOURCE = """
float logistic(float x) {
  return 1.0f / (1.0f + expf(-x));
}

void softmax(float *input, int n, float *output) {
  float largest = -3.4e38f;
  for (int i = 0; i < n; i++) {
    if (input[i] > largest) {
      largest = input[i];
    }
  }
  float sum = 0.0f;
  for (int i = 0; i < n; i++) {
    output[i] = expf(input[i] - largest);
    sum += output[i];
  }
  if (sum > 0.0f) {
    for (int i = 0; i < n; i++) {
      output[i] /= sum;
    }
  } else {
    for (int i = 0; i < n; i++) {
      output[i] = 1.0f / n;
    }
  }
}

int decode_region(float *feat, int cells, int classes, float thresh,
                  float *out) {
  int stride = 5 + classes;
  int count = 0;
  float probs[16];
  for (int cell = 0; cell < cells; cell++) {
    float objectness = logistic(feat[cell * stride + 4]);
    if (objectness < thresh) {
      continue;
    }
    softmax(feat + cell * stride + 5, classes, probs);
    int best = 0;
    for (int k = 1; k < classes; k++) {
      if (probs[k] > probs[best]) {
        best = k;
      }
    }
    out[count * 6 + 0] = logistic(feat[cell * stride + 0]);
    out[count * 6 + 1] = logistic(feat[cell * stride + 1]);
    out[count * 6 + 2] = feat[cell * stride + 2];
    out[count * 6 + 3] = feat[cell * stride + 3];
    out[count * 6 + 4] = objectness * probs[best];
    out[count * 6 + 5] = best;
    count++;
  }
  return count;
}
"""

CONVOLUTIONAL_SOURCE = """
void scale_bias(float *output, float *scales, int filters, int spatial) {
  for (int f = 0; f < filters; f++) {
    for (int s = 0; s < spatial; s++) {
      output[f * spatial + s] *= scales[f];
    }
  }
}

void add_bias(float *output, float *biases, int filters, int spatial) {
  for (int f = 0; f < filters; f++) {
    for (int s = 0; s < spatial; s++) {
      output[f * spatial + s] += biases[f];
    }
  }
}

void forward_convolutional(float *output, float *biases, float *scales,
                           float *mean, float *variance, int filters,
                           int spatial, int batch_normalize, int groups,
                           int activation) {
  if (groups > 1) {
    int group_size = filters / groups;
    for (int g = 0; g < groups; g++) {
      for (int f = 0; f < group_size; f++) {
        int filter = g * group_size + f;
        for (int s = 0; s < spatial; s++) {
          output[filter * spatial + s] *= 0.5f;
        }
      }
    }
  }
  if (batch_normalize != 0) {
    for (int f = 0; f < filters; f++) {
      float deviation = sqrtf(variance[f]) + 0.000001f;
      for (int s = 0; s < spatial; s++) {
        int index = f * spatial + s;
        output[index] = (output[index] - mean[f]) / deviation;
      }
    }
    scale_bias(output, scales, filters, spatial);
  }
  add_bias(output, biases, filters, spatial);
  if (activation == 2) {
    for (int i = 0; i < filters * spatial; i++) {
      output[i] = output[i] > 0.0f ? output[i] : 0.1f * output[i];
    }
  } else if (activation == 1) {
    for (int i = 0; i < filters * spatial; i++) {
      output[i] = 1.0f / (1.0f + expf(-output[i]));
    }
  }
}
"""

UPSAMPLE_SOURCE = """
void forward_upsample(float *input, float *output, int h, int w,
                      int channels, int stride, float scale) {
  int out_h = h * stride;
  int out_w = w * stride;
  for (int ch = 0; ch < channels; ch++) {
    for (int oy = 0; oy < out_h; oy++) {
      for (int ox = 0; ox < out_w; ox++) {
        int iy = oy / stride;
        int ix = ox / stride;
        float value = input[(ch * h + iy) * w + ix];
        if (scale != 1.0f) {
          value *= scale;
        }
        output[(ch * out_h + oy) * out_w + ox] = value;
      }
    }
  }
}
"""

IMAGE_SOURCE = """
float get_pixel(float *im, int h, int w, int x, int y, int c) {
  if (x < 0 || x >= w || y < 0 || y >= h) {
    return 0.0f;
  }
  return im[(c * h + y) * w + x];
}

float bilinear_interpolate(float *im, int h, int w, float x, float y,
                           int c) {
  int ix = (int)floorf(x);
  int iy = (int)floorf(y);
  float dx = x - ix;
  float dy = y - iy;
  float value = (1.0f - dy) * (1.0f - dx) * get_pixel(im, h, w, ix, iy, c)
      + dy * (1.0f - dx) * get_pixel(im, h, w, ix, iy + 1, c)
      + (1.0f - dy) * dx * get_pixel(im, h, w, ix + 1, iy, c)
      + dy * dx * get_pixel(im, h, w, ix + 1, iy + 1, c);
  return value;
}

void resize_image(float *im, int h, int w, int channels, float *out,
                  int out_h, int out_w) {
  float w_scale = (float)(w - 1) / (out_w - 1);
  float h_scale = (float)(h - 1) / (out_h - 1);
  for (int c = 0; c < channels; c++) {
    for (int y = 0; y < out_h; y++) {
      for (int x = 0; x < out_w; x++) {
        float sx = x * w_scale;
        float sy = y * h_scale;
        out[(c * out_h + y) * out_w + x] =
            bilinear_interpolate(im, h, w, sx, sy, c);
      }
    }
  }
}

void constrain_image(float *im, int n) {
  for (int i = 0; i < n; i++) {
    if (im[i] < 0.0f) {
      im[i] = 0.0f;
    }
    if (im[i] > 1.0f) {
      im[i] = 1.0f;
    }
  }
}
"""

#: All YOLO module files, in the order Figure 5 lists them.
YOLO_FILES: Dict[str, str] = {
    "activations.c": ACTIVATIONS_SOURCE,
    "blas.c": BLAS_SOURCE,
    "box.c": BOX_SOURCE,
    "convolutional_layer.c": CONVOLUTIONAL_SOURCE,
    "gemm.c": GEMM_SOURCE,
    "im2col.c": IM2COL_SOURCE,
    "image.c": IMAGE_SOURCE,
    "maxpool_layer.c": MAXPOOL_SOURCE,
    "region_layer.c": REGION_SOURCE,
    "upsample.c": UPSAMPLE_SOURCE,
}


def _activation_values(rng: np.random.Generator, count: int) -> List[float]:
    """Post-convolution activations: mostly small, both signs."""
    return list(rng.normal(0.0, 1.0, size=count))


def scenario_suite(filename: str, seed: int = 7) -> List[TestVector]:
    """The real-scenario test vectors for one YOLO file.

    These emulate what running recorded driving scenes through the
    detector exercises: leaky/linear activations, NN GEMM with beta=1,
    contiguous BLAS, pad-0 pooling, pad-1 im2col, and region decoding at
    the production objectness threshold.
    """
    rng = np.random.default_rng(seed)
    if filename == "activations.c":
        values = _activation_values(rng, 24)
        return [
            TestVector("activate_array", (list(values), 24, 2),
                       name="conv leaky activation"),
            TestVector("activate_array", (list(values), 24, 0),
                       name="head linear activation"),
            TestVector("activate_array", (list(values), 24, 1),
                       name="lane-probability logistic activation"),
            TestVector("activate", (1.5, 2), expected=1.5),
            TestVector("activate", (-2.0, 2), expected=-0.2),
            TestVector("gradient", (0.7, 2), expected=1.0),
            TestVector("gradient", (-0.7, 2), expected=0.1),
        ]
    if filename == "gemm.c":
        m, n, k = 4, 6, 5
        a = list(rng.normal(size=m * k))
        b = list(rng.normal(size=k * n))
        return [
            TestVector("gemm_cpu",
                       (0, 0, m, n, k, 1.0, a, k, b, n, 1.0,
                        [0.0] * (m * n), n),
                       name="conv lowered GEMM (NN, beta=1)"),
            TestVector("gemm_cpu",
                       (0, 0, m, n, k, 1.0, a, k, b, n, 0.0,
                        list(rng.normal(size=m * n)), n),
                       name="head GEMM (NN, beta=0 fresh output)"),
            TestVector("gemm_flops", (m, n, k, 1), expected=2 * m * n * k
                       + m * n),
        ]
    if filename == "blas.c":
        n = 16
        x = list(rng.normal(size=n))
        y = list(rng.normal(size=n))
        mean = [0.0] * 4
        return [
            TestVector("fill_cpu", (n, 0.0, [1.0] * n, 1)),
            TestVector("copy_cpu", (n, x, 1, [0.0] * n, 1)),
            TestVector("axpy_cpu", (n, 0.5, x, 1, y, 1)),
            TestVector("axpy_cpu", (n // 2, 0.5, x, 2, y, 2),
                       name="strided shortcut-layer axpy"),
            TestVector("scal_cpu", (n, 1.1, list(x), 1)),
            TestVector("mean_cpu", (list(rng.normal(size=16)), 1, 4, 4,
                                    mean)),
            TestVector("normalize_cpu",
                       (list(rng.normal(size=16)), [0.1] * 4, [1.0] * 4,
                        1, 4, 4)),
        ]
    if filename == "box.c":
        overlapping = [0.5, 0.5, 0.4, 0.4, 0.55, 0.55, 0.4, 0.4,
                       0.9, 0.9, 0.1, 0.1]
        scores = [0.9, 0.8, 0.7]
        return [
            TestVector("box_iou", ([0.5, 0.5, 0.4, 0.4],
                                   [0.55, 0.55, 0.4, 0.4])),
            TestVector("box_iou", ([0.2, 0.2, 0.1, 0.1],
                                   [0.8, 0.8, 0.1, 0.1]), expected=0.0),
            TestVector("do_nms", (overlapping, scores, 3, 0.45),
                       expected=2),
        ]
    if filename == "im2col.c":
        image = list(rng.normal(size=2 * 6 * 6))
        col = [0.0] * (2 * 3 * 3 * 36)
        return [
            TestVector("im2col_cpu", (image, 2, 6, 6, 3, 1, 1, col),
                       name="3x3 stride-1 pad-1 conv lowering"),
        ]
    if filename == "maxpool_layer.c":
        image = list(rng.normal(size=2 * 8 * 8))
        out = [0.0] * (2 * 4 * 4)
        return [
            TestVector("forward_maxpool", (image, out, 8, 8, 2, 2, 2, 0),
                       name="2x2 stride-2 maxpool"),
        ]
    if filename == "region_layer.c":
        classes = 4
        cells = 6
        feat: List[float] = []
        for cell in range(cells):
            # Two confident cells, the rest below threshold.
            objectness = 2.0 if cell in (1, 4) else -3.0
            feat.extend(rng.normal(0.0, 0.5, size=4))
            feat.append(objectness)
            feat.extend(rng.normal(0.0, 1.0, size=classes))
        out = [0.0] * (cells * 6)
        return [
            TestVector("decode_region", (feat, cells, classes, 0.5, out),
                       expected=2, name="region decode at 0.5 threshold"),
            TestVector("logistic", (0.0,), expected=0.5),
        ]
    if filename == "convolutional_layer.c":
        filters, spatial = 4, 9
        output = list(rng.normal(size=filters * spatial))
        biases = list(rng.normal(0.0, 0.1, size=filters))
        scales = list(rng.uniform(0.8, 1.2, size=filters))
        mean = list(rng.normal(0.0, 0.2, size=filters))
        variance = list(rng.uniform(0.5, 1.5, size=filters))
        return [
            TestVector("forward_convolutional",
                       (list(output), biases, scales, mean, variance,
                        filters, spatial, 1, 1, 2),
                       name="bn conv + leaky"),
            TestVector("forward_convolutional",
                       (list(output), biases, scales, mean, variance,
                        filters, spatial, 0, 1, 0),
                       name="head conv, no bn, linear"),
            TestVector("forward_convolutional",
                       (list(output), biases, scales, mean, variance,
                        filters, spatial, 0, 1, 1),
                       name="lane-probability conv, logistic"),
        ]
    if filename == "upsample.c":
        image = list(rng.normal(size=2 * 4 * 4))
        out = [0.0] * (2 * 8 * 8)
        return [
            TestVector("forward_upsample", (image, out, 4, 4, 2, 2, 1.0),
                       name="2x nearest upsample"),
        ]
    if filename == "image.c":
        image = list(rng.uniform(0.0, 1.3, size=3 * 8 * 8))
        out = [0.0] * (3 * 6 * 6)
        return [
            TestVector("resize_image", (image, 8, 8, 3, out, 6, 6),
                       name="camera frame letterbox resize"),
            TestVector("constrain_image", (list(image), 3 * 8 * 8)),
            TestVector("get_pixel", (image, 8, 8, 2, 3, 0)),
        ]
    raise KeyError(f"no scenario suite for {filename!r}")


def run_yolo_coverage(filenames=None, with_mcdc: bool = True,
                      seed: int = 7) -> CoverageCampaign:
    """Run the real-scenario suite over each YOLO file; Figure 5's data.

    The one coverage campaign: ``--experiments``, the HTML dashboard and
    the Cobertura exporter all read its result.  Besides the per-file
    percentages (the paper's uncalled-function exclusion applied), the
    campaign keeps each executed file's raw collector and source text,
    so line annotation and true hit counts come from the same execution.
    """
    campaign = CoverageCampaign(files=[])
    for filename in filenames or YOLO_FILES:
        runner = CoverageRunner(YOLO_FILES[filename], filename)
        outcomes = runner.run_suite(scenario_suite(filename, seed))
        failures = [outcome for outcome in outcomes if not outcome.passed]
        if failures:
            details = "; ".join(
                f"{outcome.vector.label()}: {outcome.error}"
                for outcome in failures)
            raise RuntimeError(f"scenario failures in {filename}: {details}")
        campaign.files.append(runner.coverage(with_mcdc=with_mcdc,
                                              exclude_uncalled=True))
        campaign.collectors[filename] = runner.collector
        campaign.sources[filename] = YOLO_FILES[filename]
    return campaign
